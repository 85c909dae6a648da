use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError, Weak};
use std::time::Instant;

use awsad_core::{
    AdaptiveDetector, AdaptiveStep, BatchLane, BatchPlan, DataLogger, DetectorSnapshot,
};
use awsad_linalg::{Matrix, Vector};
use awsad_reach::CacheStats;

use crate::metrics::{MetricsInner, RuntimeMetrics};
use crate::pool::WorkerPool;

/// What the engine does when a session's input queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the producer in [`SessionHandle::submit`] until the
    /// engine's drain takes a slot. Nothing is ever degraded; the
    /// producer's own rate is throttled.
    #[default]
    Block,
    /// Accept the tick immediately but mark it **degraded**: it is
    /// still logged (the residual stream must stay gap-free) and still
    /// checked against `τ`, but at the maximum window `w_m` with no
    /// reachability query — the cheap, conservative-for-false-positives
    /// fallback of [`AdaptiveDetector::step_degraded`]. The queue can
    /// transiently exceed its capacity by the burst size; it shrinks
    /// back as the cheap path drains faster. A
    /// [`SessionHandle::step_batch`] call has no queue: its ticks past
    /// `queue_capacity` take this path.
    Degrade,
}

/// Engine construction parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads shared by all sessions (`0` = one per CPU).
    /// Ignored by [`DetectionEngine::without_pool`].
    pub workers: usize,
    /// Per-session input-queue capacity (clamped to ≥ 1).
    pub queue_capacity: usize,
    /// What to do when a session queue is full.
    pub backpressure: BackpressurePolicy,
    /// How many queued ticks the drain claims from one session per
    /// gather (clamped to ≥ 1), and the chunk size in which
    /// [`SessionHandle::step_batch`] steps a batch. Bounds how long a
    /// session stays claimed, the size of an ungrouped session's
    /// coalesced deadline-cache prewarm, and a session's share of a
    /// grouped round.
    pub drain_batch: usize,
    /// Chooses how the drain groups the sessions it gathers. The rest
    /// of the drain is the same either way, and outcomes are
    /// bit-identical:
    ///
    /// * off (the default): each session is a group of its own; its
    ///   claimed ticks prewarm its deadline cache with one batched
    ///   walk, then step one by one through [`AdaptiveDetector::step`];
    /// * on: sessions whose detectors share a plant model and window
    ///   geometry form one group, and each tick position of the group
    ///   steps through one [`awsad_core::BatchPlan`] call —
    ///   structure-of-arrays kernels that amortize the reachability
    ///   walk and window means across lanes.
    ///
    /// Degraded ticks step through [`AdaptiveDetector::step_degraded`]
    /// either way, and [`SessionHandle::step_batch`] always steps its
    /// batch as a group of its own.
    pub cross_session_batch: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            queue_capacity: 64,
            backpressure: BackpressurePolicy::Block,
            drain_batch: 32,
            cross_session_batch: false,
        }
    }
}

/// One sensor measurement delivered to a session.
#[derive(Debug, Clone, PartialEq)]
pub struct Tick {
    /// The state estimate `x̄_t` (after any sensor attack/noise).
    pub estimate: Vector,
    /// The control input `u_t` applied at this step.
    pub input: Vector,
}

/// Identifier of a detection session, unique within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// The detection result for one processed tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TickOutcome {
    /// The session the tick belonged to.
    pub session: SessionId,
    /// Zero-based submission index within the session (outcomes arrive
    /// in exactly this order — per-session FIFO).
    pub seq: u64,
    /// Whether this tick took the degraded overload path.
    pub degraded: bool,
    /// The adaptive detector's full step outcome.
    pub step: AdaptiveStep,
}

/// The full state of one engine session, sufficient to recreate it —
/// on this engine or another one — with an unbroken outcome stream:
/// the detector/logger snapshot plus the session's submission
/// sequence counter.
///
/// Produced by [`SessionHandle::snapshot`], consumed by
/// [`DetectionEngine::restore_session`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Detector adaptation state and retained logger window.
    pub state: DetectorSnapshot,
    /// The `seq` the next submitted tick will be assigned, so restored
    /// sessions continue the per-session FIFO numbering without a gap.
    pub next_seq: u64,
    /// Strictly increasing snapshot counter for this session lineage:
    /// each [`SessionHandle::snapshot`] call returns the next
    /// generation, and a session restored from a snapshot continues
    /// counting from that snapshot's generation. Two snapshots of the
    /// same lineage are therefore totally ordered — the replication
    /// layer uses this to reject a stale replica that arrives after a
    /// newer one (generations never move backwards).
    pub generation: u64,
}

/// Error returned by [`SessionHandle::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The session was closed; the tick was not accepted.
    SessionClosed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::SessionClosed => write!(f, "session is closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Locks a mutex, recovering the guard when the lock is poisoned.
///
/// Every engine mutex guards state the panic-containment path leaves
/// consistent on purpose (a panicking session is failed and cleared
/// before anything observes it half-stepped), so poisoning carries no
/// information here — propagating it is what used to turn one
/// session's panic into an engine-wide panic cascade, where every
/// later `submit`/`drain`/`close` died on `.expect("lock")`.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Condvar wait with the same poison recovery as [`lock_recover`].
fn wait_recover<'a, T>(cond: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cond.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

struct QueuedTick {
    seq: u64,
    degraded: bool,
    tick: Tick,
}

struct Inbox {
    ticks: VecDeque<QueuedTick>,
    /// Whether the session is claimed: the drain has gathered ticks
    /// from it that are not stepped yet, or a
    /// [`SessionHandle::step_batch`] call is stepping it. The gather
    /// skips a claimed session, so one thread at a time steps it —
    /// this is what serializes a session's ticks (per-session FIFO)
    /// while different sessions step concurrently. Snapshots and
    /// recalibrations wait for the claim to clear.
    scheduled: bool,
    closed: bool,
    next_seq: u64,
    /// Snapshot generations handed out so far (see
    /// [`SessionSnapshot::generation`]); seeded from the restoring
    /// snapshot so the lineage's counter survives migration.
    generation: u64,
    /// The session itself, held while ticks are queued. The registry
    /// holds sessions weakly, so without it a handle dropped with
    /// ticks queued would free the session, and the ticks, before the
    /// drain gathered them. Set by every push; cleared by whoever
    /// empties the queue while holding a reference of its own. The
    /// cycle is the slot's with itself and lasts only while ticks wait.
    keepalive: Option<Arc<SessionSlot>>,
}

struct SessionState {
    logger: DataLogger,
    detector: AdaptiveDetector,
    outcomes: mpsc::Sender<TickOutcome>,
}

struct SessionSlot {
    id: SessionId,
    engine: Arc<EngineShared>,
    inbox: Mutex<Inbox>,
    /// Signalled when a queue slot frees up (Block producers wait), on
    /// close, and when a claim is released.
    space: Condvar,
    state: Mutex<SessionState>,
    /// Grouping key on a grouped engine (`0` on an ungrouped one,
    /// whose drain groups by session id): sessions with equal keys
    /// share an estimator walk fingerprint, seeding radius and window
    /// clamp range, so the drain may step them as one [`BatchPlan`]
    /// group. Behind a mutex because a mid-stream recalibration swaps
    /// the estimator fingerprint; it is only written while the session
    /// is quiescent and unclaimed (inbox lock held, queue empty,
    /// `scheduled` false), and the gather reads it while claiming the
    /// session, so the copy stays valid for the whole round.
    batch_key: Mutex<u64>,
    /// Set when a panic escaped this session's detector or logger
    /// (e.g. a wrong-dimension tick tripping [`DataLogger::record`]'s
    /// assert). A failed session is closed, its queued ticks are
    /// dropped (with the pending count refunded) and it is never
    /// stepped again — the failure is contained to this session
    /// instead of poisoning the engine's locks.
    failed: AtomicBool,
}

struct EngineShared {
    config: EngineConfig,
    metrics: MetricsInner,
    /// Ticks submitted and not yet fully processed, across all
    /// sessions; guards the idle condition for [`DetectionEngine::drain`].
    pending: Mutex<u64>,
    idle: Condvar,
    next_id: Mutex<u64>,
    /// Every session of the engine, for the drain's gather. Weak, so a
    /// closed session is freed once its handle is gone and its queue
    /// is empty (a session with queued ticks holds itself; see
    /// `Inbox::keepalive`). Dead entries are pruned by each gather and
    /// whenever registering a session would grow the list.
    sessions: Mutex<Vec<Weak<SessionSlot>>>,
    /// Whether the drain is queued or running. At most one at a time.
    drain_scheduled: Mutex<bool>,
}

/// An online multi-session detection engine.
///
/// Each **session** owns one plant instance's detection state — a
/// [`DataLogger`] plus an [`AdaptiveDetector`] (optionally with a
/// deadline cache installed) — and receives measurement [`Tick`]s
/// through a bounded queue. One drain steps them: it gathers queued
/// ticks from every session, groups the sessions (see
/// [`EngineConfig::cross_session_batch`]) and steps the groups on a
/// fixed [`WorkerPool`] shared by all sessions (an engine built
/// [`without_pool`](DetectionEngine::without_pool) drains on the
/// submitting thread, or steps batches where they arrive through
/// [`SessionHandle::step_batch`]). Sessions are independent and process
/// concurrently, while ticks *within* a session are strictly
/// serialized in submission order, so every session produces exactly
/// the [`AdaptiveStep`] sequence the detector would produce standalone.
///
/// Overload behavior is configurable per engine via
/// [`BackpressurePolicy`]. Built-in [`RuntimeMetrics`] counters track
/// throughput, alarms, queue high-water and per-stage latency at
/// negligible cost (relaxed atomics).
///
/// # Example
///
/// ```
/// use awsad_core::{AdaptiveDetector, DataLogger, DetectorConfig};
/// use awsad_linalg::{Matrix, Vector};
/// use awsad_lti::LtiSystem;
/// use awsad_reach::{DeadlineEstimator, ReachConfig};
/// use awsad_runtime::{DetectionEngine, EngineConfig, Tick};
/// use awsad_sets::BoxSet;
///
/// // Integrator plant x' = x + u, |u| <= 1, safe |x| <= 5.
/// let sys = LtiSystem::new_discrete_fully_observable(
///     Matrix::identity(1),
///     Matrix::from_rows(&[&[1.0]]).unwrap(),
///     0.02,
/// )
/// .unwrap();
/// let reach = ReachConfig::new(
///     BoxSet::from_bounds(&[-1.0], &[1.0]).unwrap(),
///     0.0,
///     BoxSet::from_bounds(&[-5.0], &[5.0]).unwrap(),
///     10,
/// )
/// .unwrap();
/// let est = DeadlineEstimator::new(sys.a(), sys.b(), reach).unwrap();
/// let cfg = DetectorConfig::new(Vector::from_slice(&[0.5]), 10).unwrap();
/// let detector = AdaptiveDetector::new(cfg, est).unwrap();
/// let logger = DataLogger::new(sys, 10);
///
/// let engine = DetectionEngine::new(EngineConfig::default());
/// let (session, outcomes) = engine.add_session(logger, detector);
/// session
///     .submit(Tick {
///         estimate: Vector::from_slice(&[0.0]),
///         input: Vector::from_slice(&[0.0]),
///     })
///     .unwrap();
/// engine.drain();
/// let outcome = outcomes.try_recv().unwrap();
/// assert_eq!(outcome.seq, 0);
/// assert_eq!(outcome.step.window, 5);
/// assert_eq!(engine.metrics().ticks_processed, 1);
/// ```
#[derive(Debug)]
pub struct DetectionEngine {
    pool: Option<Arc<WorkerPool>>,
    shared: Arc<EngineShared>,
}

impl std::fmt::Debug for EngineShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineShared")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl DetectionEngine {
    /// Creates an engine with its own worker pool.
    pub fn new(config: EngineConfig) -> Self {
        let pool = Arc::new(WorkerPool::new(config.workers));
        Self::with_pool(config, Some(pool))
    }

    /// Creates an engine with no worker pool and no threads of its
    /// own ([`EngineConfig::workers`] is ignored). It is built for
    /// callers that step each batch where it arrives, through
    /// [`SessionHandle::step_batch`]; [`SessionHandle::submit`] still
    /// works, and drains the engine on the submitting thread before
    /// it returns.
    pub fn without_pool(config: EngineConfig) -> Self {
        Self::with_pool(config, None)
    }

    fn with_pool(config: EngineConfig, pool: Option<Arc<WorkerPool>>) -> Self {
        let config = EngineConfig {
            queue_capacity: config.queue_capacity.max(1),
            drain_batch: config.drain_batch.max(1),
            ..config
        };
        DetectionEngine {
            pool,
            shared: Arc::new(EngineShared {
                config,
                metrics: MetricsInner::default(),
                pending: Mutex::new(0),
                idle: Condvar::new(),
                next_id: Mutex::new(0),
                sessions: Mutex::new(Vec::new()),
                drain_scheduled: Mutex::new(false),
            }),
        }
    }

    /// The engine configuration in effect (capacity already clamped).
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// The number of pool worker threads (`0` for an engine built with
    /// [`DetectionEngine::without_pool`]).
    pub fn workers(&self) -> usize {
        self.pool.as_ref().map_or(0, |pool| pool.workers())
    }

    /// Opens a new detection session around a logger/detector pair and
    /// returns its handle plus the receiving end of its outcome
    /// stream.
    ///
    /// Install a deadline cache on the detector *before* adding it
    /// (see [`AdaptiveDetector::set_deadline_cache`]) to memoize
    /// reachability queries; with the exact cache configuration the
    /// outcome stream is bit-identical either way.
    pub fn add_session(
        &self,
        logger: DataLogger,
        detector: AdaptiveDetector,
    ) -> (SessionHandle, mpsc::Receiver<TickOutcome>) {
        self.add_session_with(logger, detector, 0, 0)
    }

    /// Opens a session that resumes from `snapshot`: the detector and
    /// logger (fresh instances built from the same configuration the
    /// snapshot was taken under) are rewound to the snapshotted state
    /// and the new session's outcome `seq` continues from the
    /// snapshot's counter, so the combined pre/post-snapshot outcome
    /// stream is indistinguishable from an uninterrupted session.
    ///
    /// # Errors
    ///
    /// [`awsad_core::DetectError::InvalidSnapshot`] when the snapshot
    /// fails validation against the supplied detector/logger pair (see
    /// [`AdaptiveDetector::restore`]); no session is created then.
    pub fn restore_session(
        &self,
        mut logger: DataLogger,
        mut detector: AdaptiveDetector,
        snapshot: &SessionSnapshot,
    ) -> awsad_core::Result<(SessionHandle, mpsc::Receiver<TickOutcome>)> {
        detector.restore(&mut logger, &snapshot.state)?;
        Ok(self.add_session_with(logger, detector, snapshot.next_seq, snapshot.generation))
    }

    fn add_session_with(
        &self,
        logger: DataLogger,
        detector: AdaptiveDetector,
        next_seq: u64,
        generation: u64,
    ) -> (SessionHandle, mpsc::Receiver<TickOutcome>) {
        let id = {
            let mut next = lock_recover(&self.shared.next_id);
            let id = SessionId(*next);
            *next += 1;
            id
        };
        let (tx, rx) = mpsc::channel();
        let batch_key = if self.shared.config.cross_session_batch {
            batch_key_of(&detector)
        } else {
            0
        };
        let slot = Arc::new(SessionSlot {
            id,
            engine: Arc::clone(&self.shared),
            inbox: Mutex::new(Inbox {
                ticks: VecDeque::new(),
                scheduled: false,
                closed: false,
                next_seq,
                generation,
                keepalive: None,
            }),
            space: Condvar::new(),
            state: Mutex::new(SessionState {
                logger,
                detector,
                outcomes: tx,
            }),
            batch_key: Mutex::new(batch_key),
            failed: AtomicBool::new(false),
        });
        {
            let mut registry = lock_recover(&self.shared.sessions);
            // Prune before the list would grow, so an engine that opens
            // and closes sessions without ever draining (one that only
            // steps batches) keeps it bounded.
            if registry.len() == registry.capacity() {
                registry.retain(|weak| weak.strong_count() > 0);
            }
            registry.push(Arc::downgrade(&slot));
        }
        self.shared
            .metrics
            .sessions_active
            .fetch_add(1, Ordering::Relaxed);
        (
            SessionHandle {
                slot,
                pool: self.pool.clone(),
            },
            rx,
        )
    }

    /// A point-in-time copy of the runtime counters.
    pub fn metrics(&self) -> RuntimeMetrics {
        self.shared.metrics.snapshot()
    }

    /// Records one session snapshot accepted into this node's replica
    /// store (a stale generation that was refused does not count).
    /// Bumps `sessions_replicated`.
    ///
    /// The engine itself never replicates; this is the hook the
    /// serving layers use so replication health aggregates through
    /// [`RuntimeMetrics::merged`] exactly like every other counter.
    pub fn record_replica_stored(&self) {
        self.shared
            .metrics
            .sessions_replicated
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records the replication backlog seen when this node handed a
    /// snapshot to its egress (`lag` = snapshots queued but not yet
    /// acknowledged by the backup), raising `replication_lag_hwm` to
    /// `lag` if it is a new high-water. See
    /// [`DetectionEngine::record_replica_stored`] for why this lives
    /// on the engine.
    pub fn record_replication_lag(&self, lag: u64) {
        self.shared
            .metrics
            .replication_lag_hwm
            .fetch_max(lag, Ordering::Relaxed);
    }

    /// Records one replica promotion (a stored backup snapshot turned
    /// into a live session after its primary died). See
    /// [`DetectionEngine::record_replica_stored`] for why this lives
    /// on the engine.
    pub fn record_failover(&self) {
        self.shared
            .metrics
            .failovers
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Blocks until every tick submitted so far has been processed.
    pub fn drain(&self) {
        let mut pending = lock_recover(&self.shared.pending);
        while *pending > 0 {
            pending = wait_recover(&self.shared.idle, pending);
        }
    }
}

/// The producer side of one detection session.
///
/// Dropping the handle closes the session (already-queued ticks still
/// drain; their outcomes remain readable from the receiver).
#[derive(Debug)]
pub struct SessionHandle {
    slot: Arc<SessionSlot>,
    /// `None` for an engine built without a pool: drains then run on
    /// the submitting thread.
    pool: Option<Arc<WorkerPool>>,
}

impl std::fmt::Debug for SessionSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionSlot")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl SessionHandle {
    /// The session's engine-unique id.
    pub fn id(&self) -> SessionId {
        self.slot.id
    }

    /// Submits one measurement tick.
    ///
    /// Under [`BackpressurePolicy::Block`] this blocks while the
    /// session queue is full; under [`BackpressurePolicy::Degrade`] it
    /// returns immediately, flagging over-capacity ticks for the
    /// degraded path.
    ///
    /// # Errors
    ///
    /// [`SubmitError::SessionClosed`] after [`SessionHandle::close`]
    /// (including when the queue drains to make space only after the
    /// session was closed underneath a blocked producer).
    pub fn submit(&self, tick: Tick) -> Result<(), SubmitError> {
        let engine = &self.slot.engine;
        let capacity = engine.config.queue_capacity;
        let mut inbox = lock_recover(&self.slot.inbox);
        if inbox.closed {
            return Err(SubmitError::SessionClosed);
        }
        let mut degraded = false;
        match engine.config.backpressure {
            BackpressurePolicy::Block => {
                while inbox.ticks.len() >= capacity {
                    inbox = wait_recover(&self.slot.space, inbox);
                    if inbox.closed {
                        return Err(SubmitError::SessionClosed);
                    }
                }
            }
            BackpressurePolicy::Degrade => {
                degraded = inbox.ticks.len() >= capacity;
            }
        }
        self.enqueue(inbox, degraded, tick);
        Ok(())
    }

    /// Submits one tick pre-flagged for the degraded path, bypassing
    /// queue-capacity accounting.
    ///
    /// Whether a given tick lands over capacity under
    /// [`BackpressurePolicy::Degrade`] depends on drain timing, which
    /// makes organic overload inherently racy. Tests and differential
    /// harnesses that need a *deterministic* degrade pattern use this
    /// to force exactly which ticks take the degraded path; the
    /// resulting outcome stream is the one an overloaded run would
    /// produce for that same pattern.
    ///
    /// # Errors
    ///
    /// [`SubmitError::SessionClosed`] after [`SessionHandle::close`].
    pub fn submit_degraded(&self, tick: Tick) -> Result<(), SubmitError> {
        let inbox = lock_recover(&self.slot.inbox);
        if inbox.closed {
            return Err(SubmitError::SessionClosed);
        }
        self.enqueue(inbox, true, tick);
        Ok(())
    }

    /// Queues one accepted tick on the open inbox and rings the drain.
    fn enqueue(&self, mut inbox: MutexGuard<'_, Inbox>, degraded: bool, tick: Tick) {
        let engine = &self.slot.engine;
        let seq = inbox.next_seq;
        inbox.next_seq += 1;
        // The pending count must rise before the tick becomes visible
        // to a running drain (which decrements after processing), so
        // this happens under the inbox lock, ahead of the push.
        {
            let mut pending = lock_recover(&engine.pending);
            *pending += 1;
            engine
                .metrics
                .queue_depth_high_water
                .fetch_max(*pending, Ordering::Relaxed);
        }
        engine
            .metrics
            .ticks_submitted
            .fetch_add(1, Ordering::Relaxed);
        inbox.ticks.push_back(QueuedTick {
            seq,
            degraded,
            tick,
        });
        if inbox.keepalive.is_none() {
            inbox.keepalive = Some(Arc::clone(&self.slot));
        }
        drop(inbox);
        self.schedule_drain();
    }

    /// Steps a batch of this session's ticks on the calling thread and
    /// returns their outcomes in order — the run-to-completion entry
    /// point for hosts that answer each request in the turn that read
    /// it (the `awsad-net` server). No queue, channel or worker is
    /// involved.
    ///
    /// The batch steps through the drain's own group step, as a group
    /// of this session alone, whatever
    /// [`EngineConfig::cross_session_batch`] says: in chunks of
    /// [`EngineConfig::drain_batch`] ticks, each of which prewarms the
    /// deadline cache with one batched walk and then steps tick by
    /// tick on the scalar kernels. The batch stands in for the session
    /// queue, so under [`BackpressurePolicy::Degrade`] tick `i` takes
    /// the degraded step exactly when `i >= queue_capacity`; under
    /// [`BackpressurePolicy::Block`] none does — the caller steps
    /// before it reads more, which is its backpressure. Every
    /// [`RuntimeMetrics`] counter moves as it does for submitted ticks,
    /// except `queue_depth_high_water`: nothing is queued.
    ///
    /// Ticks already [`submit`](Self::submit)ted to this session are
    /// processed first (the call waits for them, as
    /// [`SessionHandle::snapshot`] does), so `seq` numbering stays one
    /// FIFO. A panic inside the logger or detector fails the session
    /// exactly as in the drain: the outcomes stop before the
    /// panicking tick, so the result is then shorter than the batch.
    ///
    /// # Errors
    ///
    /// [`SubmitError::SessionClosed`] when the session is closed (or
    /// failed earlier); nothing is stepped.
    pub fn step_batch<I>(&self, ticks: I) -> Result<Vec<TickOutcome>, SubmitError>
    where
        I: IntoIterator<Item = Tick>,
        I::IntoIter: ExactSizeIterator,
    {
        let engine = &self.slot.engine;
        let ticks = ticks.into_iter();
        let n = ticks.len();
        let first_seq = {
            let mut inbox = lock_recover(&self.slot.inbox);
            while !inbox.ticks.is_empty() || inbox.scheduled {
                inbox = wait_recover(&self.slot.space, inbox);
            }
            if inbox.closed {
                return Err(SubmitError::SessionClosed);
            }
            // Claim the session as the drain does, so no gather or
            // snapshot touches it while it steps here.
            inbox.scheduled = true;
            inbox.next_seq += n as u64;
            inbox.next_seq - n as u64
        };
        engine
            .metrics
            .ticks_submitted
            .fetch_add(n as u64, Ordering::Relaxed);

        let config = &engine.config;
        let degrade_from = match config.backpressure {
            BackpressurePolicy::Block => usize::MAX,
            BackpressurePolicy::Degrade => config.queue_capacity,
        };
        let mut outcomes = Vec::with_capacity(n);
        let mut group = [(
            Arc::clone(&self.slot),
            Vec::with_capacity(config.drain_batch.min(n)),
        )];
        let mut ticks = ticks.take(n).enumerate().peekable();
        while let Some((i, tick)) = ticks.next() {
            let chunk = &mut group[0].1;
            chunk.push(QueuedTick {
                seq: first_seq + i as u64,
                degraded: i >= degrade_from,
                tick,
            });
            if chunk.len() == config.drain_batch || ticks.peek().is_none() {
                process_group(engine, None, &mut group, |_, outcome| {
                    outcomes.push(outcome)
                });
                // A contained panic failed the session: the rest of
                // the batch is dropped, as the drain drops a failed
                // session's queue.
                if self.slot.failed.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
        // A submit that landed meanwhile rang the drain, which waits
        // for this claim to clear.
        release(&self.slot);
        Ok(outcomes)
    }

    /// Rings the engine's drain after a push: queues it on the pool,
    /// or, when the engine has no pool, runs it right here, on the
    /// submitting thread, before `submit` returns. At most one drain
    /// is queued or running (`EngineShared::drain_scheduled`); a push
    /// that finds one leaves its tick to it.
    fn schedule_drain(&self) {
        let engine = &self.slot.engine;
        {
            let mut scheduled = lock_recover(&engine.drain_scheduled);
            if *scheduled {
                return;
            }
            // Released before an inline drain, which retakes it to
            // retire.
            *scheduled = true;
        }
        match &self.pool {
            Some(pool) => {
                let (shared, pool2) = (Arc::clone(engine), Arc::clone(pool));
                pool.execute(move || drain(&shared, Some(&pool2)));
            }
            None => drain(engine, None),
        }
    }

    /// Closes the session: further submits fail, queued ticks still
    /// drain. Idempotent.
    pub fn close(&self) {
        let mut inbox = lock_recover(&self.slot.inbox);
        if !inbox.closed {
            inbox.closed = true;
            self.slot
                .engine
                .metrics
                .sessions_active
                .fetch_sub(1, Ordering::Relaxed);
        }
        drop(inbox);
        // Wake producers blocked on a full queue so they observe the
        // close instead of waiting forever.
        self.slot.space.notify_all();
    }

    /// Captures the session's full state as a [`SessionSnapshot`].
    ///
    /// Blocks until every tick already submitted to this session has
    /// been processed (so the snapshot is a clean cut between two
    /// ticks, never mid-batch), then copies the detector and logger
    /// state plus the session's sequence counter. Ticks submitted
    /// concurrently with the snapshot land on one side of the cut or
    /// the other — callers wanting a deterministic cut should simply
    /// not submit while snapshotting.
    pub fn snapshot(&self) -> SessionSnapshot {
        let mut inbox = lock_recover(&self.slot.inbox);
        while !inbox.ticks.is_empty() || inbox.scheduled {
            inbox = wait_recover(&self.slot.space, inbox);
        }
        // Nothing steps the session (it is unclaimed) and nothing can
        // claim it (that requires the inbox lock we hold). The gather
        // only ever `try_lock`s the state, so this lock order
        // (inbox → state) cannot deadlock.
        let state = lock_recover(&self.slot.state);
        inbox.generation += 1;
        SessionSnapshot {
            state: state.detector.snapshot(&state.logger),
            next_seq: inbox.next_seq,
            generation: inbox.generation,
        }
    }

    /// Swaps the session's plant model mid-stream (accepted model
    /// drift): rebuilds the deadline estimator around `(a, b)`, swaps
    /// the logger's prediction model, and clears any installed
    /// deadline cache — see [`AdaptiveDetector::recalibrate`] for the
    /// exact semantics. Returns the session's new recalibration count.
    ///
    /// Like [`SessionHandle::snapshot`], this blocks until every tick
    /// already submitted has been processed, so the swap is a clean
    /// cut between two ticks: every outcome before it was stepped
    /// under the old model, every outcome after it under the new one.
    /// Not a single queued tick is dropped or stepped twice. Callers
    /// wanting a deterministic cut should not submit concurrently.
    ///
    /// # Errors
    ///
    /// [`awsad_core::DetectError::InvalidRecalibration`] when the
    /// model is malformed for this session (wrong dimensions,
    /// non-finite entries, or a plant no deadline estimator accepts);
    /// the session is left exactly as it was.
    pub fn recalibrate(&self, a: &Matrix, b: &Matrix) -> awsad_core::Result<u64> {
        let inbox = {
            let mut inbox = lock_recover(&self.slot.inbox);
            while !inbox.ticks.is_empty() || inbox.scheduled {
                inbox = wait_recover(&self.slot.space, inbox);
            }
            inbox
        };
        // Same lock order and reasoning as `snapshot`.
        let mut state = lock_recover(&self.slot.state);
        let SessionState {
            logger, detector, ..
        } = &mut *state;
        let count = detector.recalibrate(logger, a, b)?;
        // The estimator fingerprint changed with the model, so the
        // batch-group key must follow — still under the inbox lock,
        // before any drain can observe the new model.
        if self.slot.engine.config.cross_session_batch {
            *lock_recover(&self.slot.batch_key) = batch_key_of(detector);
        }
        self.slot
            .engine
            .metrics
            .recalibrations
            .fetch_add(1, Ordering::Relaxed);
        drop(state);
        drop(inbox);
        Ok(count)
    }

    /// Hit/miss counters of the session detector's deadline cache
    /// (`None` when no cache is installed).
    ///
    /// Briefly locks the session state; prefer calling between bursts.
    pub fn deadline_cache_stats(&self) -> Option<CacheStats> {
        lock_recover(&self.slot.state)
            .detector
            .deadline_cache_stats()
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        self.close();
    }
}

/// Batch-grouping key: FNV-1a over everything that must match for two
/// sessions to share a [`BatchPlan`] group — the estimator's walk
/// fingerprint (plant model, horizon, admissible geometry), the
/// seeding radius, and the window clamp range. Equal keys make the
/// batched walk bit-identical to each lane's own scalar walk.
fn batch_key_of(detector: &AdaptiveDetector) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for v in [
        detector.estimator().fingerprint(),
        detector.initial_radius().to_bits(),
        detector.config().min_window() as u64,
        detector.config().max_window() as u64,
    ] {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    h
}

/// One claimed session of a group: the session and its claimed ticks,
/// in queue order.
type Claimed = (Arc<SessionSlot>, Vec<QueuedTick>);

/// The engine's drain. At most one runs at a time (guarded by
/// `EngineShared::drain_scheduled`): on a pool worker, or on the
/// submitting thread of an engine without a pool.
///
/// Each round it **gathers** (see [`gather`]) up to
/// [`EngineConfig::drain_batch`] queued ticks from every session it
/// can claim, grouped, and **scatters** the groups: the gathering
/// thread and up to `workers − 1` helpers it queues on the pool take
/// groups from the round until none is left, so every worker steps and
/// progress never depends on a helper starting. A round ends when its
/// last group is stepped. The drain retires when a gather finds
/// nothing and no tick is pending.
fn drain(shared: &Arc<EngineShared>, pool: Option<&Arc<WorkerPool>>) {
    let mut plan = BatchPlan::new();
    loop {
        let groups = gather(shared);
        if groups.is_empty() {
            // A tick is queued only after the pending count rises
            // (both under its session's inbox lock), so pending == 0
            // here proves no session holds unclaimed work and the
            // drain may retire. pending > 0 with an empty gather means
            // a submit is mid-flight, or every session with ticks is
            // claimed by a `step_batch` call or stalled behind a held
            // state lock — yield until that passes. Holding the
            // drain_scheduled lock across the check closes the race
            // with a submit that just pushed: either it finds the flag
            // still set (we saw its pending rise and loop again), or
            // we retired first and its schedule attempt starts a fresh
            // drain.
            let mut scheduled = lock_recover(&shared.drain_scheduled);
            if *lock_recover(&shared.pending) == 0 {
                *scheduled = false;
                return;
            }
            drop(scheduled);
            std::thread::yield_now();
            continue;
        }
        let n_groups = groups.len();
        let round = Arc::new(Round {
            groups: Mutex::new(groups),
            unfinished: Mutex::new(n_groups),
            done: Condvar::new(),
        });
        if let Some(pool) = pool {
            // One helper per other worker, and no more than there are
            // other groups.
            for _ in 1..pool.workers().min(n_groups) {
                let (shared, round) = (Arc::clone(shared), Arc::clone(&round));
                pool.execute(move || round.step(&shared, &mut BatchPlan::new()));
            }
        }
        round.step(shared, &mut plan);
        let mut unfinished = lock_recover(&round.unfinished);
        while *unfinished > 0 {
            unfinished = wait_recover(&round.done, unfinished);
        }
    }
}

/// One gather round's groups, shared by the gathering thread and the
/// helpers it queues on the pool.
struct Round {
    /// Groups no thread has taken yet.
    groups: Mutex<Vec<Vec<Claimed>>>,
    /// Groups not stepped to the end yet; the gathering thread waits
    /// for zero.
    unfinished: Mutex<usize>,
    done: Condvar,
}

impl Round {
    /// Takes and steps groups until none is left. Each group's claims
    /// are released, and its ticks leave the pending count, as soon as
    /// it is stepped.
    fn step(&self, shared: &EngineShared, plan: &mut BatchPlan) {
        let grouped = shared.config.cross_session_batch;
        loop {
            let next = lock_recover(&self.groups).pop();
            let Some(mut group) = next else {
                return;
            };
            let ticks = group.iter().map(|(_, ticks)| ticks.len() as u64).sum();
            process_group(
                shared,
                grouped.then_some(&mut *plan),
                &mut group,
                |state, outcome| {
                    // The receiver may be gone (caller only wanted metrics).
                    let _ = state.outcomes.send(outcome);
                },
            );
            for (slot, _) in &group {
                release(slot);
            }
            retire(shared, ticks);
            let mut unfinished = lock_recover(&self.unfinished);
            *unfinished -= 1;
            if *unfinished == 0 {
                self.done.notify_all();
            }
        }
    }
}

/// Claims up to `drain_batch` queued ticks from every unclaimed
/// session whose state lock is free, and groups the claimed sessions
/// by key: the batch key on a grouped engine, the session id
/// otherwise.
fn gather(shared: &EngineShared) -> Vec<Vec<Claimed>> {
    let config = &shared.config;
    let slots: Vec<Arc<SessionSlot>> = {
        let mut registry = lock_recover(&shared.sessions);
        registry.retain(|weak| weak.strong_count() > 0);
        registry.iter().filter_map(Weak::upgrade).collect()
    };
    let mut claimed: Vec<(u64, Claimed)> = Vec::new();
    for slot in slots {
        let mut inbox = lock_recover(&slot.inbox);
        if inbox.scheduled || inbox.ticks.is_empty() {
            continue;
        }
        // Pop only while the session's state lock is free, so a
        // stalled session keeps its queue and its producers keep
        // feeling the pressure; the drain comes back for it.
        let state = match slot.state.try_lock() {
            Ok(state) => state,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => continue,
        };
        let take = inbox.ticks.len().min(config.drain_batch);
        let ticks: Vec<QueuedTick> = inbox.ticks.drain(..take).collect();
        drop(state);
        inbox.scheduled = true;
        if inbox.ticks.is_empty() {
            // `slot` holds the session from here on.
            inbox.keepalive = None;
        }
        let key = if config.cross_session_batch {
            *lock_recover(&slot.batch_key)
        } else {
            slot.id.0
        };
        drop(inbox);
        // Queue slots freed: wake blocked producers.
        slot.space.notify_all();
        claimed.push((key, (slot, ticks)));
    }
    claimed.sort_by_key(|(key, _)| *key);
    let mut groups: Vec<Vec<Claimed>> = Vec::new();
    let mut prev_key = None;
    for (key, member) in claimed {
        if prev_key != Some(key) {
            groups.push(Vec::new());
            prev_key = Some(key);
        }
        groups.last_mut().expect("just pushed").push(member);
    }
    groups
}

/// Releases a claim: snapshot takers, `step_batch` callers and blocked
/// producers re-check their conditions.
fn release(slot: &SessionSlot) {
    lock_recover(&slot.inbox).scheduled = false;
    slot.space.notify_all();
}

/// Takes `ticks` processed or dropped ticks off the pending count,
/// waking [`DetectionEngine::drain`] callers when it reaches zero.
fn retire(shared: &EngineShared, ticks: u64) {
    let mut pending = lock_recover(&shared.pending);
    *pending -= ticks;
    if *pending == 0 {
        shared.idle.notify_all();
    }
}

/// Steps one claimed group — the engine's only per-tick loop, run by
/// the drain for every group it gathers and by
/// [`SessionHandle::step_batch`] for each chunk of its batch. Drains
/// every member's claimed ticks and hands each outcome, with its
/// session's state, to `emit`, in `seq` order per session. Updates
/// every metric except `ticks_submitted` and the pending count (the
/// callers own those). The caller holds every member's claim.
///
/// Members step position by position: tick 0 of every member, then
/// tick 1, and so on, so a member contributes at most one tick per
/// position, in queue order. `plan` chooses the kernels. With one (a
/// grouped drain), the non-degraded ticks of a position step as the
/// lanes of one [`BatchPlan::step_group`] call. Without one (an
/// ungrouped drain's one-session groups and `step_batch` chunks), each
/// member first prewarms its deadline cache (see [`prewarm`]), then
/// steps tick by tick through [`AdaptiveDetector::step`]. Degraded
/// ticks step through [`AdaptiveDetector::step_degraded`] either way.
///
/// A panic in a member's record or scalar step fails that member's
/// session: its outcomes stop and its remaining ticks are consumed
/// without stepping, while the other members keep stepping.
///
/// All member state locks are held for the whole group (every member
/// is claimed, so the only other state-lock takers — cache stats —
/// briefly wait).
fn process_group(
    shared: &EngineShared,
    mut plan: Option<&mut BatchPlan>,
    group: &mut [Claimed],
    mut emit: impl FnMut(&SessionState, TickOutcome),
) {
    let metrics = &shared.metrics;
    let mut members: Vec<_> = group
        .iter_mut()
        .map(|(slot, ticks)| {
            let slot: &SessionSlot = slot;
            (slot, lock_recover(&slot.state), ticks.drain(..))
        })
        .collect();
    if plan.is_none() {
        for (_, state, ticks) in &mut members {
            prewarm(metrics, &mut state.detector, ticks.as_slice());
        }
    }
    // Each member's tick at this position: its seq and degraded flag.
    let mut due: Vec<Option<(u64, bool)>> = vec![None; members.len()];
    let is_lane = |due: &Option<(u64, bool)>| matches!(due, Some((_, false)));
    // The position's stepped ticks as (member, seq, degraded), and
    // their steps in the same order.
    let mut stepped: Vec<(usize, u64, bool)> = Vec::new();
    let mut steps: Vec<AdaptiveStep> = Vec::new();
    let (mut processed, mut degraded_ticks, mut alarms, mut alloc_free, mut batch_ticks) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    loop {
        let t0 = Instant::now();
        let mut recorded = 0u32;
        for ((slot, state, ticks), due) in members.iter_mut().zip(&mut due) {
            *due = None;
            let Some(QueuedTick {
                seq,
                degraded,
                tick,
            }) = ticks.next()
            else {
                continue;
            };
            processed += 1;
            let state: &mut SessionState = state;
            // Contain a panicking record (the logger asserts on a
            // wrong-dimension tick) to this session: unwinding through
            // the drain would poison the engine's locks and cascade
            // into every other session.
            let record = || state.logger.record(tick.estimate, tick.input);
            if catch_unwind(AssertUnwindSafe(record)).is_err() {
                processed += fail_member(slot, ticks);
                continue;
            }
            recorded += 1;
            *due = Some((seq, degraded));
        }
        // Nothing recorded: every member is exhausted or failed.
        if recorded == 0 {
            break;
        }

        let t1 = Instant::now();
        for (k, ((slot, state, ticks), due)) in members.iter_mut().zip(&due).enumerate() {
            let Some((seq, degraded)) = *due else {
                continue;
            };
            if plan.is_some() && !degraded {
                continue;
            }
            let state: &mut SessionState = state;
            let step = catch_unwind(AssertUnwindSafe(|| {
                if degraded {
                    state.detector.step_degraded(&state.logger)
                } else {
                    state.detector.step(&state.logger)
                }
            }));
            match step {
                Ok(step) => {
                    stepped.push((k, seq, degraded));
                    steps.push(step);
                }
                Err(_) => processed += fail_member(slot, ticks),
            }
        }
        if let Some(plan) = plan.as_deref_mut() {
            let mut lanes: Vec<BatchLane<'_>> = members
                .iter_mut()
                .zip(&due)
                .filter(|(_, due)| is_lane(due))
                .map(|((_, state, _), _)| {
                    let state: &mut SessionState = state;
                    BatchLane {
                        logger: &state.logger,
                        detector: &mut state.detector,
                    }
                })
                .collect();
            if !lanes.is_empty() {
                plan.step_group(&mut lanes, &mut steps);
                let n_lanes = lanes.len() as u64;
                batch_ticks += n_lanes;
                metrics
                    .batch_sessions_hwm
                    .fetch_max(n_lanes, Ordering::Relaxed);
            }
            let walked = due.iter().enumerate().filter(|(_, due)| is_lane(due));
            stepped.extend(walked.map(|(k, due)| (k, due.expect("a lane").0, false)));
        }
        let t2 = Instant::now();

        // One span per phase covers the whole position; attribute the
        // mean to each tick, so counts and totals match per-tick
        // timing.
        metrics
            .log_latency
            .record_n((t1 - t0) / recorded, u64::from(recorded));
        if !steps.is_empty() {
            let n = steps.len() as u32;
            metrics.detect_latency.record_n((t2 - t1) / n, u64::from(n));
        }

        for ((k, seq, degraded), step) in stepped.drain(..).zip(steps.drain(..)) {
            let (slot, state, _) = &members[k];
            if degraded {
                degraded_ticks += 1;
            } else if state.detector.last_step_was_alloc_free() {
                alloc_free += 1;
            }
            if step.alarm() {
                alarms += 1;
            }
            let outcome = TickOutcome {
                session: slot.id,
                seq,
                degraded,
                step,
            };
            emit(state, outcome);
        }
    }
    drop(members);

    for (counter, n) in [
        (&metrics.ticks_processed, processed),
        (&metrics.degraded_ticks, degraded_ticks),
        (&metrics.alarms_raised, alarms),
        (&metrics.alloc_free_ticks, alloc_free),
        (&metrics.batch_ticks, batch_ticks),
    ] {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Prewarms a scalar member's deadline cache with one batched walk
/// over its claimed non-degraded estimates, coalescing what would
/// otherwise be per-tick cache-miss walks. Prewarmed entries are
/// bit-identical to miss-path entries, so outcomes are unchanged.
fn prewarm(metrics: &MetricsInner, detector: &mut AdaptiveDetector, ticks: &[QueuedTick]) {
    if ticks.len() < 2 || !detector.has_deadline_cache() {
        return;
    }
    let estimates: Vec<&Vector> = ticks
        .iter()
        .filter(|q| !q.degraded)
        .map(|q| &q.tick.estimate)
        .collect();
    if estimates.is_empty() {
        return;
    }
    let inserted = detector.prewarm_deadline_cache(&estimates) as u64;
    if inserted > 0 {
        metrics
            .batched_deadline_queries
            .fetch_add(inserted, Ordering::Relaxed);
    }
}

/// Fails a group member's session after a panic in its record or
/// step, and consumes the member's remaining claimed ticks without
/// stepping them. Returns how many it consumed (they still count as
/// processed).
fn fail_member(slot: &SessionSlot, ticks: &mut std::vec::Drain<'_, QueuedTick>) -> u64 {
    fail_session(slot);
    ticks.by_ref().count() as u64
}

/// Fails one session after a panic escaped its logger/detector step:
/// marks it failed and closed (further submits error with
/// [`SubmitError::SessionClosed`]), drops its queued ticks with the
/// pending count refunded so [`DetectionEngine::drain`] still
/// terminates, and wakes blocked producers and snapshot takers. The
/// session's outcome stream simply ends; every other session keeps
/// running — this is the containment that replaces the old
/// lock-poisoning panic cascade. The caller holds a reference to the
/// session.
fn fail_session(slot: &SessionSlot) {
    slot.failed.store(true, Ordering::Relaxed);
    let mut inbox = lock_recover(&slot.inbox);
    let dropped = inbox.ticks.len() as u64;
    inbox.ticks.clear();
    inbox.keepalive = None;
    if !inbox.closed {
        inbox.closed = true;
        slot.engine
            .metrics
            .sessions_active
            .fetch_sub(1, Ordering::Relaxed);
    }
    drop(inbox);
    slot.space.notify_all();
    if dropped > 0 {
        retire(&slot.engine, dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awsad_core::DetectorConfig;
    use awsad_linalg::Matrix;
    use awsad_lti::LtiSystem;
    use awsad_reach::{CacheConfig, DeadlineCache, DeadlineEstimator, ReachConfig};
    use awsad_sets::BoxSet;

    /// Integrator plant; safe |x| <= 5, |u| <= 1, threshold tau.
    fn parts(tau: f64, w_m: usize) -> (DataLogger, AdaptiveDetector) {
        let sys = LtiSystem::new_discrete_fully_observable(
            Matrix::identity(1),
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            0.02,
        )
        .unwrap();
        let reach = ReachConfig::new(
            BoxSet::from_bounds(&[-1.0], &[1.0]).unwrap(),
            0.0,
            BoxSet::from_bounds(&[-5.0], &[5.0]).unwrap(),
            w_m,
        )
        .unwrap();
        let est = DeadlineEstimator::new(sys.a(), sys.b(), reach).unwrap();
        let cfg = DetectorConfig::new(Vector::from_slice(&[tau]), w_m).unwrap();
        let logger = DataLogger::new(sys.clone(), w_m);
        let det = AdaptiveDetector::new(cfg, est).unwrap();
        (logger, det)
    }

    fn tick(x: f64) -> Tick {
        Tick {
            estimate: Vector::from_slice(&[x]),
            input: Vector::from_slice(&[0.0]),
        }
    }

    /// Direct reference: `trace` stepped on a standalone detector,
    /// degraded where `degraded(i)` says.
    fn direct_steps(trace: &[f64], degraded: impl Fn(usize) -> bool) -> Vec<AdaptiveStep> {
        let (mut logger, mut det) = parts(0.28, 10);
        trace
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                logger.record(Vector::from_slice(&[x]), Vector::from_slice(&[0.0]));
                if degraded(i) {
                    det.step_degraded(&logger)
                } else {
                    det.step(&logger)
                }
            })
            .collect()
    }

    #[test]
    fn step_batch_matches_direct_stepping_after_submitted_ticks() {
        let trace: Vec<f64> = (0..45).map(|t| 0.05 * t as f64).collect();
        let expected = direct_steps(&trace, |_| false);
        for engine in [
            DetectionEngine::new(EngineConfig::default()),
            DetectionEngine::without_pool(EngineConfig::default()),
        ] {
            let (logger, det) = parts(0.28, 10);
            let (session, outcomes) = engine.add_session(logger, det);
            // Submitted ticks come first; the batch continues their seq.
            for &x in &trace[..5] {
                session.submit(tick(x)).unwrap();
            }
            let got = session
                .step_batch(trace[5..].iter().map(|&x| tick(x)))
                .unwrap();
            let queued: Vec<TickOutcome> = outcomes.try_iter().collect();
            assert_eq!(queued.len(), 5, "workers = {}", engine.workers());
            assert_eq!(got.len(), 40);
            for (i, o) in queued.iter().chain(&got).enumerate() {
                assert_eq!(o.seq, i as u64);
                assert_eq!(o.session, session.id());
                assert!(!o.degraded);
                assert_eq!(o.step, expected[i], "tick {i}");
            }
            let m = engine.metrics();
            assert_eq!(m.ticks_submitted, 45);
            assert_eq!(m.ticks_processed, 45);
            assert_eq!(m.log_latency.count, 45);
            assert_eq!(m.detect_latency.count, 45);
            assert_eq!(session.snapshot().next_seq, 45);
        }
    }

    #[test]
    fn step_batch_degrades_exactly_past_queue_capacity() {
        let trace: Vec<f64> = (0..10).map(|t| 0.2 * t as f64).collect();
        for (policy, degraded_from) in [
            (BackpressurePolicy::Degrade, 4),
            (BackpressurePolicy::Block, usize::MAX),
        ] {
            let engine = DetectionEngine::without_pool(EngineConfig {
                queue_capacity: 4,
                backpressure: policy,
                ..EngineConfig::default()
            });
            let (logger, det) = parts(0.28, 10);
            let (session, _outcomes) = engine.add_session(logger, det);
            let got = session.step_batch(trace.iter().map(|&x| tick(x))).unwrap();
            let expected = direct_steps(&trace, |i| i >= degraded_from);
            for (i, o) in got.iter().enumerate() {
                assert_eq!(o.degraded, i >= degraded_from, "{policy:?} tick {i}");
                assert_eq!(o.step, expected[i], "{policy:?} tick {i}");
            }
            let m = engine.metrics();
            assert_eq!(m.degraded_ticks, 10u64.saturating_sub(degraded_from as u64));
            assert_eq!(m.queue_depth_high_water, 0, "nothing was queued");
        }
    }

    #[test]
    fn step_batch_prewarms_in_drain_batch_chunks() {
        let trace: Vec<f64> = (0..32).map(|t| 0.01 * t as f64).collect();
        let expected = direct_steps(&trace, |_| false);
        for (drain_batch, prewarmed) in [(1, 0), (8, 32)] {
            let engine = DetectionEngine::without_pool(EngineConfig {
                drain_batch,
                ..EngineConfig::default()
            });
            let (logger, mut det) = parts(0.28, 10);
            det.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(128)));
            let (session, _outcomes) = engine.add_session(logger, det);
            let got = session.step_batch(trace.iter().map(|&x| tick(x))).unwrap();
            let steps: Vec<AdaptiveStep> = got.into_iter().map(|o| o.step).collect();
            assert_eq!(steps, expected, "drain_batch = {drain_batch}");
            assert_eq!(
                engine.metrics().batched_deadline_queries,
                prewarmed,
                "drain_batch = {drain_batch}"
            );
        }
    }

    #[test]
    fn step_batch_contains_a_panic_and_returns_short() {
        let engine = DetectionEngine::without_pool(EngineConfig {
            drain_batch: 2,
            ..EngineConfig::default()
        });
        let (logger_a, det_a) = parts(1e6, 5);
        let (session_a, _oa) = engine.add_session(logger_a, det_a);
        let (logger_b, det_b) = parts(1e6, 5);
        let (session_b, _ob) = engine.add_session(logger_b, det_b);
        let batch = vec![tick(0.1), tick(0.1), tick(0.1), poison_tick(), tick(0.1)];
        let got = session_a.step_batch(batch).unwrap();
        assert_eq!(got.len(), 3, "outcomes stop before the panicking tick");
        assert_eq!(
            session_a.step_batch(vec![tick(0.1)]),
            Err(SubmitError::SessionClosed)
        );
        assert_eq!(session_a.submit(tick(0.1)), Err(SubmitError::SessionClosed));
        assert_eq!(session_b.step_batch(vec![tick(0.2); 4]).unwrap().len(), 4);
        let m = engine.metrics();
        assert_eq!(m.sessions_active, 1);
        assert_eq!(
            m.ticks_processed,
            4 + 4,
            "the dropped tail is not processed"
        );
    }

    #[test]
    fn engine_without_pool_drains_on_the_submitting_thread() {
        for cross_session_batch in [false, true] {
            let engine = DetectionEngine::without_pool(EngineConfig {
                workers: 4,
                cross_session_batch,
                ..EngineConfig::default()
            });
            assert_eq!(engine.workers(), 0);
            let trace: Vec<f64> = (0..30).map(|t| 0.04 * t as f64).collect();
            let expected = direct_steps(&trace, |_| false);
            let sessions: Vec<_> = (0..2)
                .map(|_| {
                    let (logger, det) = parts(0.28, 10);
                    engine.add_session(logger, det)
                })
                .collect();
            for &x in &trace {
                for (session, _) in &sessions {
                    session.submit(tick(x)).unwrap();
                }
            }
            // No drain call: every outcome is already on its channel.
            for (session, outcomes) in &sessions {
                let steps: Vec<AdaptiveStep> = outcomes.try_iter().map(|o| o.step).collect();
                assert_eq!(steps, expected, "batch = {cross_session_batch}");
                assert_eq!(session.snapshot().next_seq, 30);
            }
            engine.drain();
        }
    }

    #[test]
    fn outcomes_arrive_in_submission_order() {
        let engine = DetectionEngine::new(EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        });
        let (logger, det) = parts(0.5, 10);
        let (session, outcomes) = engine.add_session(logger, det);
        for i in 0..200 {
            session.submit(tick(0.001 * i as f64)).unwrap();
        }
        engine.drain();
        let got: Vec<u64> = outcomes.try_iter().map(|o| o.seq).collect();
        assert_eq!(got, (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn runtime_matches_direct_detector_stepping() {
        let engine = DetectionEngine::new(EngineConfig::default());
        let (logger, det) = parts(0.28, 10);
        let (mut direct_logger, mut direct_det) = parts(0.28, 10);
        let (session, outcomes) = engine.add_session(logger, det);
        let trace: Vec<f64> = (0..40).map(|t| 0.05 * t as f64).collect();
        for &x in &trace {
            session.submit(tick(x)).unwrap();
        }
        engine.drain();
        for &x in &trace {
            direct_logger.record(Vector::from_slice(&[x]), Vector::from_slice(&[0.0]));
            let expected = direct_det.step(&direct_logger);
            let got = outcomes.try_recv().expect("outcome per tick");
            assert_eq!(got.step, expected);
            assert!(!got.degraded);
        }
    }

    #[test]
    fn recalibrate_mid_stream_matches_direct_reference() {
        // 20 ticks under the configured model, an accepted drift swap,
        // 20 more under the new one: outcome-for-outcome identical to
        // a standalone detector recalibrated at the same cut, with not
        // a single tick dropped or duplicated across the swap.
        let new_a = Matrix::from_rows(&[&[0.9]]).unwrap();
        let new_b = Matrix::from_rows(&[&[0.8]]).unwrap();
        let engine = DetectionEngine::new(EngineConfig::default());
        let (logger, det) = parts(0.28, 10);
        let (mut direct_logger, mut direct_det) = parts(0.28, 10);
        let (session, outcomes) = engine.add_session(logger, det);
        let trace: Vec<f64> = (0..40).map(|t| 0.04 * t as f64).collect();
        for &x in &trace[..20] {
            session.submit(tick(x)).unwrap();
        }
        assert_eq!(session.recalibrate(&new_a, &new_b).unwrap(), 1);
        for &x in &trace[20..] {
            session.submit(tick(x)).unwrap();
        }
        engine.drain();
        for (i, &x) in trace.iter().enumerate() {
            if i == 20 {
                direct_det
                    .recalibrate(&mut direct_logger, &new_a, &new_b)
                    .unwrap();
            }
            direct_logger.record(Vector::from_slice(&[x]), Vector::from_slice(&[0.0]));
            let expected = direct_det.step(&direct_logger);
            let got = outcomes.try_recv().expect("outcome per tick");
            assert_eq!(got.seq, i as u64);
            assert_eq!(got.step, expected, "tick {i}");
        }
        assert_eq!(engine.metrics().recalibrations, 1);
    }

    #[test]
    fn rejected_recalibration_leaves_session_and_metrics_untouched() {
        let engine = DetectionEngine::new(EngineConfig::default());
        let (logger, det) = parts(0.28, 10);
        let (mut direct_logger, mut direct_det) = parts(0.28, 10);
        let (session, outcomes) = engine.add_session(logger, det);
        session.submit(tick(0.01)).unwrap();
        let wrong_dims = Matrix::identity(2);
        assert!(session
            .recalibrate(&wrong_dims, &Matrix::from_rows(&[&[1.0]]).unwrap())
            .is_err());
        session.submit(tick(0.02)).unwrap();
        engine.drain();
        for &x in &[0.01, 0.02] {
            direct_logger.record(Vector::from_slice(&[x]), Vector::from_slice(&[0.0]));
            let expected = direct_det.step(&direct_logger);
            assert_eq!(outcomes.try_recv().unwrap().step, expected);
        }
        assert_eq!(engine.metrics().recalibrations, 0);
    }

    #[test]
    fn recalibrate_regroups_batch_mode_sessions() {
        // Two same-model sessions share a batch group; recalibrating
        // one must split them (different estimator fingerprints) while
        // both streams stay bit-identical to scalar references.
        let new_a = Matrix::from_rows(&[&[0.9]]).unwrap();
        let new_b = Matrix::from_rows(&[&[1.0]]).unwrap();
        let engine = DetectionEngine::new(EngineConfig {
            cross_session_batch: true,
            ..EngineConfig::default()
        });
        let (l0, d0) = parts(0.28, 10);
        let (l1, d1) = parts(0.28, 10);
        let (s0, o0) = engine.add_session(l0, d0);
        let (s1, o1) = engine.add_session(l1, d1);
        let key_before = *lock_recover(&s0.slot.batch_key);
        assert_eq!(key_before, *lock_recover(&s1.slot.batch_key));

        let trace: Vec<f64> = (0..30).map(|t| 0.03 * t as f64).collect();
        for &x in &trace[..15] {
            s0.submit(tick(x)).unwrap();
            s1.submit(tick(x)).unwrap();
        }
        engine.drain();
        s0.recalibrate(&new_a, &new_b).unwrap();
        let key_after = *lock_recover(&s0.slot.batch_key);
        assert_ne!(key_after, key_before, "fingerprint must follow the model");
        assert_eq!(*lock_recover(&s1.slot.batch_key), key_before);
        for &x in &trace[15..] {
            s0.submit(tick(x)).unwrap();
            s1.submit(tick(x)).unwrap();
        }
        engine.drain();

        let (mut rl0, mut rd0) = parts(0.28, 10);
        let (mut rl1, mut rd1) = parts(0.28, 10);
        for (i, &x) in trace.iter().enumerate() {
            if i == 15 {
                rd0.recalibrate(&mut rl0, &new_a, &new_b).unwrap();
            }
            rl0.record(Vector::from_slice(&[x]), Vector::from_slice(&[0.0]));
            rl1.record(Vector::from_slice(&[x]), Vector::from_slice(&[0.0]));
            assert_eq!(o0.try_recv().unwrap().step, rd0.step(&rl0), "s0 tick {i}");
            assert_eq!(o1.try_recv().unwrap().step, rd1.step(&rl1), "s1 tick {i}");
        }
    }

    #[test]
    fn sessions_process_concurrently_and_independently() {
        let engine = DetectionEngine::new(EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        });
        let mut sessions = Vec::new();
        for _ in 0..8 {
            let (logger, det) = parts(0.5, 10);
            sessions.push(engine.add_session(logger, det));
        }
        for (i, (session, _)) in sessions.iter().enumerate() {
            for t in 0..50 {
                session.submit(tick(0.01 * (i + t) as f64)).unwrap();
            }
        }
        engine.drain();
        for (i, (session, outcomes)) in sessions.iter().enumerate() {
            let outs: Vec<TickOutcome> = outcomes.try_iter().collect();
            assert_eq!(outs.len(), 50, "session {i}");
            assert!(outs.windows(2).all(|p| p[0].seq + 1 == p[1].seq));
            assert_eq!(outs[0].session, session.id());
        }
        let m = engine.metrics();
        assert_eq!(m.ticks_processed, 400);
        assert_eq!(m.log_latency.count, 400);
        assert_eq!(m.detect_latency.count, 400);
    }

    #[test]
    fn metrics_count_alarms_and_sessions() {
        let engine = DetectionEngine::new(EngineConfig::default());
        let (logger, det) = parts(0.2, 10);
        let (session, _outcomes) = engine.add_session(logger, det);
        assert_eq!(engine.metrics().sessions_active, 1);
        for _ in 0..8 {
            session.submit(tick(0.0)).unwrap();
        }
        // Residual spike 2.0 over window 5: mean 0.4 > 0.2 → alarm.
        session.submit(tick(2.0)).unwrap();
        engine.drain();
        let m = engine.metrics();
        assert_eq!(m.ticks_processed, 9);
        assert!(m.alarms_raised >= 1);
        assert!(m.queue_depth_high_water >= 1);
        session.close();
        assert_eq!(engine.metrics().sessions_active, 0);
    }

    #[test]
    fn submit_after_close_fails() {
        let engine = DetectionEngine::new(EngineConfig::default());
        let (logger, det) = parts(0.5, 10);
        let (session, outcomes) = engine.add_session(logger, det);
        session.submit(tick(0.0)).unwrap();
        session.close();
        assert_eq!(session.submit(tick(0.0)), Err(SubmitError::SessionClosed));
        // The already-queued tick still drains.
        engine.drain();
        assert_eq!(outcomes.try_iter().count(), 1);
    }

    #[test]
    fn degrade_policy_flags_overflow_ticks() {
        // One worker, permanently busy elsewhere? Simplest determinism:
        // stall the session by taking its state lock so nothing drains
        // while we overfill the queue.
        let engine = DetectionEngine::new(EngineConfig {
            workers: 2,
            queue_capacity: 4,
            backpressure: BackpressurePolicy::Degrade,
            ..EngineConfig::default()
        });
        let (logger, det) = parts(0.5, 10);
        let (session, outcomes) = engine.add_session(logger, det);
        {
            let _stall = session.slot.state.lock().unwrap();
            for _ in 0..10 {
                session.submit(tick(0.0)).unwrap();
            }
        }
        engine.drain();
        let outs: Vec<TickOutcome> = outcomes.try_iter().collect();
        assert_eq!(outs.len(), 10);
        let degraded: Vec<bool> = outs.iter().map(|o| o.degraded).collect();
        // The drain may pop tick 0 before it stalls on the state lock,
        // so the queue holds 9 or 10 of the submissions: the first
        // `capacity` are regular, everything past the full queue is
        // degraded, and tick 4 can fall either way.
        let n_degraded = degraded.iter().filter(|&&d| d).count();
        assert!((5..=6).contains(&n_degraded), "degraded = {degraded:?}");
        assert!(degraded[..4].iter().all(|&d| !d));
        assert!(degraded[5..].iter().all(|&d| d));
        // Degraded ticks run at w_m with no deadline estimate.
        for o in outs.iter().filter(|o| o.degraded) {
            assert_eq!(o.step.window, 10);
        }
        assert_eq!(engine.metrics().degraded_ticks, n_degraded as u64);
    }

    #[test]
    fn degrade_policy_survives_concurrent_producers_on_one_session() {
        // Several producer threads hammer a single session while its
        // drain is stalled (state lock held), overflowing the queue
        // far past capacity. Degrade must (a) never block a producer,
        // (b) flag every over-capacity tick, (c) preserve seq order in
        // the outcome stream, and (d) leave no tick behind — all of
        // which together also proves there is no deadlock between the
        // inbox lock, the pending counter, and the drain job.
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 50;
        const TOTAL: usize = PRODUCERS * PER_PRODUCER;
        const CAPACITY: usize = 8;

        let engine = DetectionEngine::new(EngineConfig {
            workers: 2,
            queue_capacity: CAPACITY,
            backpressure: BackpressurePolicy::Degrade,
            ..EngineConfig::default()
        });
        let (logger, det) = parts(0.5, 10);
        let (session, outcomes) = engine.add_session(logger, det);
        {
            let _stall = session.slot.state.lock().unwrap();
            std::thread::scope(|scope| {
                for _ in 0..PRODUCERS {
                    scope.spawn(|| {
                        for _ in 0..PER_PRODUCER {
                            session.submit(tick(0.0)).unwrap();
                        }
                    });
                }
            });
        }
        engine.drain();

        let outs: Vec<TickOutcome> = outcomes.try_iter().collect();
        assert_eq!(outs.len(), TOTAL, "every submitted tick must drain");
        // Seq order is the engine's FIFO guarantee; with concurrent
        // producers it is also a permutation check (each seq exactly
        // once, in order).
        let seqs: Vec<u64> = outs.iter().map(|o| o.seq).collect();
        assert_eq!(seqs, (0..TOTAL as u64).collect::<Vec<u64>>());
        // The drain may pop at most one tick before stalling on the
        // state lock, so all but the first CAPACITY (+1) submissions
        // overflowed and must be flagged.
        let n_degraded = outs.iter().filter(|o| o.degraded).count();
        assert!(
            (TOTAL - CAPACITY - 1..=TOTAL - CAPACITY).contains(&n_degraded),
            "expected ~{} degraded, got {n_degraded}",
            TOTAL - CAPACITY
        );
        // Degraded ticks run at w_m; none may slip through unpinned.
        for o in outs.iter().filter(|o| o.degraded) {
            assert_eq!(o.step.window, 10);
        }
        let m = engine.metrics();
        assert_eq!(m.ticks_submitted, TOTAL as u64);
        assert_eq!(m.ticks_processed, TOTAL as u64);
        assert_eq!(m.degraded_ticks, n_degraded as u64);
    }

    #[test]
    fn block_policy_never_degrades_and_bounds_queue() {
        let engine = DetectionEngine::new(EngineConfig {
            workers: 2,
            queue_capacity: 2,
            backpressure: BackpressurePolicy::Block,
            ..EngineConfig::default()
        });
        let (logger, det) = parts(0.5, 10);
        let (session, outcomes) = engine.add_session(logger, det);
        for _ in 0..50 {
            session.submit(tick(0.0)).unwrap();
        }
        engine.drain();
        assert!(outcomes.try_iter().all(|o| !o.degraded));
        assert_eq!(engine.metrics().degraded_ticks, 0);
    }

    #[test]
    fn exact_cache_in_engine_is_transparent_and_hits() {
        let (logger_a, det_a) = parts(0.5, 10);
        let (logger_b, mut det_b) = parts(0.5, 10);
        det_b.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(128)));
        let engine = DetectionEngine::new(EngineConfig::default());
        let (plain, plain_out) = engine.add_session(logger_a, det_a);
        let (cached, cached_out) = engine.add_session(logger_b, det_b);
        for t in 0..60 {
            let x = if t % 2 == 0 { 0.0 } else { 1.0 };
            plain.submit(tick(x)).unwrap();
            cached.submit(tick(x)).unwrap();
        }
        engine.drain();
        let a: Vec<AdaptiveStep> = plain_out.try_iter().map(|o| o.step).collect();
        let b: Vec<AdaptiveStep> = cached_out.try_iter().map(|o| o.step).collect();
        assert_eq!(a, b, "exact cache must not change any decision");
        let stats = cached.deadline_cache_stats().unwrap();
        assert!(stats.hits > 0, "alternating states must hit the cache");
        assert!(plain.deadline_cache_stats().is_none());
    }

    #[test]
    fn batched_drain_coalesces_cache_misses_and_counts_alloc_free_ticks() {
        // Stall the session so a burst accumulates, then let a single
        // batch drain it: the distinct states' cache misses coalesce
        // into one batched reachability walk and every per-tick query
        // hits the prewarmed cache.
        let engine = DetectionEngine::new(EngineConfig {
            workers: 2,
            queue_capacity: 64,
            backpressure: BackpressurePolicy::Block,
            ..EngineConfig::default()
        });
        let (logger, mut det) = parts(0.5, 10);
        det.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(128)));
        let (session, outcomes) = engine.add_session(logger, det);
        {
            let _stall = session.slot.state.lock().unwrap();
            for _ in 0..32 {
                session.submit(tick(0.0)).unwrap();
            }
        }
        engine.drain();
        assert_eq!(outcomes.try_iter().count(), 32);
        let m = engine.metrics();
        assert_eq!(
            m.batched_deadline_queries, 1,
            "one distinct state → one prewarmed entry"
        );
        assert_eq!(
            m.alloc_free_ticks, 32,
            "all steps hit the cache with no complementary alarms"
        );
        let stats = session.deadline_cache_stats().unwrap();
        assert_eq!(stats.misses, 1, "only the prewarm insert");
        assert_eq!(stats.hits, 32);
    }

    #[test]
    fn uncached_steady_stream_is_alloc_free() {
        let engine = DetectionEngine::new(EngineConfig::default());
        let (logger, det) = parts(0.5, 10);
        let (session, _outcomes) = engine.add_session(logger, det);
        for _ in 0..20 {
            session.submit(tick(0.0)).unwrap();
        }
        engine.drain();
        let m = engine.metrics();
        assert_eq!(m.ticks_processed, 20);
        assert_eq!(
            m.alloc_free_ticks, 20,
            "scratch-walk steps without a cache never allocate"
        );
        assert_eq!(
            m.batched_deadline_queries, 0,
            "no cache, nothing to coalesce"
        );
    }

    #[test]
    fn snapshot_restore_continues_stream_and_seq_across_engines() {
        // Spike-then-drift trace that shrinks the window and trips
        // alarms, so resuming exercises real adaptation state.
        let trace: Vec<f64> = (0..60)
            .map(|t| match t {
                0..=9 => 0.0,
                _ => 2.0 + 0.04 * (t as f64 - 10.0),
            })
            .collect();
        let cut = 23;

        // Uninterrupted reference.
        let reference = DetectionEngine::new(EngineConfig::default());
        let (logger, det) = parts(0.28, 10);
        let (ref_session, ref_out) = reference.add_session(logger, det);
        for &x in &trace {
            ref_session.submit(tick(x)).unwrap();
        }
        reference.drain();
        let expected: Vec<TickOutcome> = ref_out.try_iter().collect();
        assert!(expected.iter().any(|o| o.step.alarm()));

        // Interrupted run: snapshot at the cut, kill the engine, then
        // restore into a brand-new engine with fresh parts.
        let first = DetectionEngine::new(EngineConfig::default());
        let (logger, det) = parts(0.28, 10);
        let (session, out) = first.add_session(logger, det);
        for &x in &trace[..cut] {
            session.submit(tick(x)).unwrap();
        }
        let snap = session.snapshot();
        assert_eq!(snap.next_seq, cut as u64);
        let mut got: Vec<TickOutcome> = out.try_iter().collect();
        drop(session);
        drop(first);

        let second = DetectionEngine::new(EngineConfig::default());
        let (logger, det) = parts(0.28, 10);
        let (restored, out2) = second.restore_session(logger, det, &snap).unwrap();
        for &x in &trace[cut..] {
            restored.submit(tick(x)).unwrap();
        }
        second.drain();
        got.extend(out2.try_iter());

        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected.iter()) {
            assert_eq!(g.seq, e.seq, "seq numbering must continue gap-free");
            assert_eq!(g.step, e.step, "outcome stream must be identical");
        }
    }

    #[test]
    fn snapshot_generations_increase_and_survive_restore() {
        let engine = DetectionEngine::new(EngineConfig::default());
        let (logger, det) = parts(0.5, 10);
        let (session, _out) = engine.add_session(logger, det);
        session.submit(tick(0.0)).unwrap();
        let s1 = session.snapshot();
        let s2 = session.snapshot();
        assert_eq!(s1.generation, 1);
        assert_eq!(s2.generation, 2, "each snapshot is a fresh generation");

        // A restored session continues the lineage's counter, so a
        // snapshot taken after migration still orders after every
        // pre-migration snapshot.
        let second = DetectionEngine::new(EngineConfig::default());
        let (logger, det) = parts(0.5, 10);
        let (restored, _out2) = second.restore_session(logger, det, &s2).unwrap();
        assert_eq!(restored.snapshot().generation, 3);
    }

    #[test]
    fn replication_recorders_feed_metrics() {
        let engine = DetectionEngine::new(EngineConfig::default());
        for lag in [2, 5, 1] {
            engine.record_replication_lag(lag);
        }
        for _ in 0..3 {
            engine.record_replica_stored();
        }
        engine.record_failover();
        let m = engine.metrics();
        assert_eq!(m.sessions_replicated, 3);
        assert_eq!(m.failovers, 1);
        assert_eq!(m.replication_lag_hwm, 5, "high-water, not last value");
    }

    #[test]
    fn snapshot_waits_for_queued_ticks() {
        // Pile ticks up behind a stalled drain, then snapshot from
        // another thread: the snapshot must block until every queued
        // tick has been processed, so the captured state reflects all
        // of them.
        let engine = DetectionEngine::new(EngineConfig {
            workers: 2,
            queue_capacity: 64,
            backpressure: BackpressurePolicy::Block,
            ..EngineConfig::default()
        });
        let (logger, det) = parts(0.5, 10);
        let (session, outcomes) = engine.add_session(logger, det);
        let snap = {
            let stall = session.slot.state.lock().unwrap();
            for _ in 0..20 {
                session.submit(tick(0.0)).unwrap();
            }
            let handle = std::thread::scope(|scope| {
                let taker = scope.spawn(|| session.snapshot());
                // The taker cannot finish while the drain is stalled.
                std::thread::sleep(std::time::Duration::from_millis(50));
                assert!(!taker.is_finished(), "snapshot returned mid-queue");
                drop(stall);
                taker.join().unwrap()
            });
            handle
        };
        assert_eq!(snap.next_seq, 20);
        assert_eq!(snap.state.logger.next_step, 20);
        assert_eq!(outcomes.try_iter().count(), 20);
    }

    #[test]
    fn restore_session_rejects_bad_snapshots_without_creating_one() {
        let engine = DetectionEngine::new(EngineConfig::default());
        let (logger, det) = parts(0.5, 10);
        let (session, _out) = engine.add_session(logger, det);
        for _ in 0..5 {
            session.submit(tick(0.0)).unwrap();
        }
        let mut snap = session.snapshot();
        snap.state.reestimation_period = 0;
        let (logger, det) = parts(0.5, 10);
        let before = engine.metrics().sessions_active;
        assert!(engine.restore_session(logger, det, &snap).is_err());
        assert_eq!(engine.metrics().sessions_active, before);
    }

    #[test]
    fn session_ids_are_unique_and_displayed() {
        let engine = DetectionEngine::new(EngineConfig::default());
        let (l1, d1) = parts(0.5, 10);
        let (l2, d2) = parts(0.5, 10);
        let (s1, _o1) = engine.add_session(l1, d1);
        let (s2, _o2) = engine.add_session(l2, d2);
        assert_ne!(s1.id(), s2.id());
        assert_eq!(s1.id().to_string(), "session-0");
    }

    #[test]
    fn drain_on_idle_engine_returns_immediately() {
        let engine = DetectionEngine::new(EngineConfig::default());
        engine.drain();
        assert_eq!(engine.metrics().ticks_processed, 0);
    }

    #[test]
    fn drain_batch_defaults_and_clamps() {
        assert_eq!(EngineConfig::default().drain_batch, 32);
        assert!(!EngineConfig::default().cross_session_batch);
        let engine = DetectionEngine::new(EngineConfig {
            drain_batch: 0,
            ..EngineConfig::default()
        });
        assert_eq!(engine.config().drain_batch, 1, "zero clamps to one");
    }

    #[test]
    fn degrade_stall_semantics_unchanged_at_all_drain_batch_values() {
        // The drain-batch knob bounds how many ticks one state-lock
        // acquisition processes; it must not change *which* ticks the
        // Degrade policy flags. Replay the stalled-session scenario of
        // `degrade_policy_flags_overflow_ticks` at several knob values
        // and require the same degrade envelope every time.
        for drain_batch in [1usize, 2, 32, 128] {
            let engine = DetectionEngine::new(EngineConfig {
                workers: 2,
                queue_capacity: 4,
                backpressure: BackpressurePolicy::Degrade,
                drain_batch,
                ..EngineConfig::default()
            });
            let (logger, det) = parts(0.5, 10);
            let (session, outcomes) = engine.add_session(logger, det);
            {
                let _stall = session.slot.state.lock().unwrap();
                for _ in 0..10 {
                    session.submit(tick(0.0)).unwrap();
                }
            }
            engine.drain();
            let outs: Vec<TickOutcome> = outcomes.try_iter().collect();
            assert_eq!(outs.len(), 10, "drain_batch={drain_batch}");
            let degraded: Vec<bool> = outs.iter().map(|o| o.degraded).collect();
            let n_degraded = degraded.iter().filter(|&&d| d).count();
            assert!(
                (5..=6).contains(&n_degraded),
                "drain_batch={drain_batch}: degraded = {degraded:?}"
            );
            assert!(degraded[..4].iter().all(|&d| !d));
            assert!(degraded[5..].iter().all(|&d| d));
            for o in outs.iter().filter(|o| o.degraded) {
                assert_eq!(o.step.window, 10);
            }
        }
    }

    #[test]
    fn a_stalled_session_keeps_its_whole_queue() {
        // The drain pops a session's queue only while it can take the
        // session's state lock. Submits spaced out so the drain gathers
        // between them still find every earlier tick queued, so the
        // Degrade pattern is exact: ticks 4.. degrade.
        let engine = DetectionEngine::new(EngineConfig {
            workers: 2,
            queue_capacity: 4,
            backpressure: BackpressurePolicy::Degrade,
            ..EngineConfig::default()
        });
        let (logger, det) = parts(0.5, 10);
        let (session, outcomes) = engine.add_session(logger, det);
        {
            let _stall = session.slot.state.lock().unwrap();
            for _ in 0..10 {
                session.submit(tick(0.0)).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            assert_eq!(lock_recover(&session.slot.inbox).ticks.len(), 10);
        }
        engine.drain();
        let degraded: Vec<bool> = outcomes.try_iter().map(|o| o.degraded).collect();
        assert_eq!(degraded, (0..10).map(|i| i >= 4).collect::<Vec<bool>>());
    }

    /// Mixed fleet on a batch-mode engine vs direct per-detector
    /// stepping: same-model sessions with and without an exact
    /// deadline cache, a session with another horizon, and a forced
    /// degrade pattern — every outcome stream must be bit-identical to
    /// standalone stepping.
    #[test]
    fn batch_mode_matches_direct_detector_stepping() {
        let engine = DetectionEngine::new(EngineConfig {
            workers: 1,
            cross_session_batch: true,
            ..EngineConfig::default()
        });
        // Sessions 0-4: same plant/geometry (one batch group, varied
        // thresholds are fine); session 4 carries an exact deadline
        // cache. Session 5: different horizon → different fingerprint
        // → its own group.
        let mut sessions = Vec::new();
        let mut direct = Vec::new();
        for i in 0..6 {
            let tau = 0.3 + 0.05 * i as f64;
            let w_m = if i == 5 { 8 } else { 10 };
            let (logger, mut det) = parts(tau, w_m);
            let (ref_logger, mut det_ref) = parts(tau, w_m);
            if i == 4 {
                det.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(64)));
                det_ref.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(64)));
            }
            sessions.push(engine.add_session(logger, det));
            direct.push((ref_logger, det_ref));
        }
        let ticks = 50usize;
        for t in 0..ticks {
            for (i, (session, _)) in sessions.iter().enumerate() {
                let x = 0.11 * ((t * 7 + i * 3) % 13) as f64 - 0.6;
                if (t + i) % 9 == 0 {
                    session.submit_degraded(tick(x)).unwrap();
                } else {
                    session.submit(tick(x)).unwrap();
                }
            }
        }
        engine.drain();
        for (i, (_, outcomes)) in sessions.iter().enumerate() {
            let (ref_logger, ref_det) = &mut direct[i];
            for t in 0..ticks {
                let x = 0.11 * ((t * 7 + i * 3) % 13) as f64 - 0.6;
                ref_logger.record(Vector::from_slice(&[x]), Vector::from_slice(&[0.0]));
                let expected = if (t + i) % 9 == 0 {
                    ref_det.step_degraded(ref_logger)
                } else {
                    ref_det.step(ref_logger)
                };
                let got = outcomes.try_recv().expect("outcome per tick");
                assert_eq!(got.seq, t as u64, "session {i}");
                assert_eq!(got.step, expected, "session {i} tick {t}");
                assert_eq!(got.degraded, (t + i) % 9 == 0);
            }
        }
        let m = engine.metrics();
        assert_eq!(m.ticks_processed, 6 * ticks as u64);
        assert_eq!(
            m.batch_ticks,
            m.ticks_processed - m.degraded_ticks,
            "every non-degraded tick must vectorize"
        );
        assert!(
            m.batch_sessions_hwm >= 2,
            "at least two sessions must have shared a lane set, got {}",
            m.batch_sessions_hwm
        );
        assert_eq!(
            m.log_latency.count,
            6 * ticks as u64,
            "batched timing must attribute one sample per tick"
        );
    }

    #[test]
    fn batch_mode_scatters_groups_across_workers() {
        // Two distinct model groups on a multi-worker pool: the drain
        // calls in a helper, and the two threads take the groups
        // between them. Outcomes must still match direct stepping
        // exactly.
        let engine = DetectionEngine::new(EngineConfig {
            workers: 4,
            cross_session_batch: true,
            ..EngineConfig::default()
        });
        let mut sessions = Vec::new();
        let mut direct = Vec::new();
        for i in 0..6 {
            let w_m = if i % 2 == 0 { 10 } else { 12 };
            let (logger, det) = parts(0.4, w_m);
            let (ref_logger, ref_det) = parts(0.4, w_m);
            sessions.push(engine.add_session(logger, det));
            direct.push((ref_logger, ref_det));
        }
        for t in 0..60 {
            for (i, (session, _)) in sessions.iter().enumerate() {
                let x = 0.07 * ((t * 5 + i) % 11) as f64;
                session.submit(tick(x)).unwrap();
            }
        }
        engine.drain();
        for (i, (_, outcomes)) in sessions.iter().enumerate() {
            let (ref_logger, ref_det) = &mut direct[i];
            for t in 0..60 {
                let x = 0.07 * ((t * 5 + i) % 11) as f64;
                ref_logger.record(Vector::from_slice(&[x]), Vector::from_slice(&[0.0]));
                let expected = ref_det.step(ref_logger);
                let got = outcomes.try_recv().expect("outcome per tick");
                assert_eq!(got.step, expected, "session {i} tick {t}");
            }
        }
        assert_eq!(engine.metrics().ticks_processed, 360);
    }

    #[test]
    fn batch_mode_snapshot_waits_and_cuts_cleanly() {
        let engine = DetectionEngine::new(EngineConfig {
            workers: 1,
            cross_session_batch: true,
            ..EngineConfig::default()
        });
        let (logger, det) = parts(0.5, 10);
        let (session, outcomes) = engine.add_session(logger, det);
        for _ in 0..20 {
            session.submit(tick(0.0)).unwrap();
        }
        let snap = session.snapshot();
        assert_eq!(snap.next_seq, 20, "snapshot waits for queued ticks");
        assert_eq!(snap.state.logger.next_step, 20);
        engine.drain();
        assert_eq!(outcomes.try_iter().count(), 20);
    }

    #[test]
    fn batch_mode_dropped_session_does_not_hang_drain() {
        // A handle dropped with ticks still queued: the session holds
        // itself until the drain has gathered them, so every tick is
        // still stepped and its outcome stays readable. The only
        // worker is kept busy until the handle is gone, so the drop
        // always comes before the gather.
        for cross_session_batch in [false, true] {
            let engine = DetectionEngine::new(EngineConfig {
                workers: 1,
                cross_session_batch,
                ..EngineConfig::default()
            });
            let (logger, det) = parts(0.5, 10);
            let (session, outcomes) = engine.add_session(logger, det);
            let (go, wait) = mpsc::channel::<()>();
            let pool = engine.pool.as_ref().expect("a pooled engine");
            pool.execute(move || {
                let _ = wait.recv();
            });
            for _ in 0..10 {
                session.submit(tick(0.0)).unwrap();
            }
            drop(session);
            go.send(()).unwrap();
            engine.drain();
            let seqs: Vec<u64> = outcomes.try_iter().map(|o| o.seq).collect();
            assert_eq!(
                seqs,
                (0..10).collect::<Vec<u64>>(),
                "batch = {cross_session_batch}"
            );
            assert_eq!(engine.metrics().ticks_processed, 10);
            // The engine stays functional.
            let (logger, det) = parts(0.5, 10);
            let (fresh, fresh_out) = engine.add_session(logger, det);
            fresh.submit(tick(0.0)).unwrap();
            engine.drain();
            assert_eq!(fresh_out.try_iter().count(), 1);
        }
    }

    #[test]
    fn registry_stays_bounded_on_an_engine_that_never_drains() {
        // A server's engine only steps batches, so no gather ever
        // prunes its registry; registering prunes instead.
        let engine = DetectionEngine::without_pool(EngineConfig::default());
        for _ in 0..1000 {
            let (logger, det) = parts(0.5, 10);
            let (session, _outcomes) = engine.add_session(logger, det);
            assert_eq!(session.step_batch(vec![tick(0.0)]).unwrap().len(), 1);
        }
        let registered = lock_recover(&engine.shared.sessions).len();
        assert!(
            registered <= 16,
            "{registered} registry entries after 1000 closed sessions"
        );
    }

    #[test]
    fn batch_mode_close_drains_queued_ticks() {
        let engine = DetectionEngine::new(EngineConfig {
            workers: 1,
            cross_session_batch: true,
            ..EngineConfig::default()
        });
        let (logger, det) = parts(0.5, 10);
        let (session, outcomes) = engine.add_session(logger, det);
        for _ in 0..5 {
            session.submit(tick(0.0)).unwrap();
        }
        session.close();
        assert_eq!(session.submit(tick(0.0)), Err(SubmitError::SessionClosed));
        engine.drain();
        assert_eq!(outcomes.try_iter().count(), 5);
    }

    /// A tick whose estimate dimension does not match the 1-dim plant:
    /// `DataLogger::record` panics on it inside the drain worker.
    fn poison_tick() -> Tick {
        Tick {
            estimate: Vector::from_slice(&[0.0, 0.0]),
            input: Vector::from_slice(&[0.0]),
        }
    }

    /// Regression: a panic inside one session's step (here the
    /// logger's dimension assert) used to poison the engine's mutexes,
    /// turning every later submit on *any* session into a panic
    /// cascade. Now it fails only the offending session: its stream
    /// ends and further submits see `SessionClosed`, while unrelated
    /// sessions — including ones opened afterwards — keep processing,
    /// and `drain` still terminates.
    #[test]
    fn panicking_session_is_contained_scalar() {
        let engine = DetectionEngine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let (logger_a, det_a) = parts(1e6, 5);
        let (session_a, outcomes_a) = engine.add_session(logger_a, det_a);
        let (logger_b, det_b) = parts(1e6, 5);
        let (session_b, outcomes_b) = engine.add_session(logger_b, det_b);

        // Two good ticks, the poison tick, then two more queued behind
        // it that must be dropped, not stepped.
        for _ in 0..2 {
            session_a.submit(tick(0.1)).unwrap();
        }
        session_a.submit(poison_tick()).unwrap();
        // The drain worker races these two submits: they either queue
        // behind the poison tick and get dropped, or the session is
        // already closed and they bounce — both keep them out of the
        // outcome stream, which is the property under test.
        for _ in 0..2 {
            let _ = session_a.submit(tick(0.1));
        }
        for _ in 0..8 {
            session_b.submit(tick(0.2)).unwrap();
        }
        engine.drain();

        // Session A produced outcomes only for the ticks before the
        // panic; session B's stream is complete.
        assert_eq!(outcomes_a.try_iter().count(), 2);
        assert_eq!(outcomes_b.try_iter().count(), 8);

        // The failed session is closed; the healthy one still works.
        assert_eq!(session_a.submit(tick(0.1)), Err(SubmitError::SessionClosed));
        session_b.submit(tick(0.2)).unwrap();

        // The engine itself is unharmed: new sessions open and run.
        let (logger_c, det_c) = parts(1e6, 5);
        let (session_c, outcomes_c) = engine.add_session(logger_c, det_c);
        for _ in 0..3 {
            session_c.submit(tick(0.3)).unwrap();
        }
        engine.drain();
        assert_eq!(outcomes_b.try_iter().count(), 1);
        assert_eq!(outcomes_c.try_iter().count(), 3);
    }

    /// The same containment on the cross-session batched drain: the
    /// poisoned lane fails its own session mid-group, the co-batched
    /// session's stream stays complete and bit-identical.
    #[test]
    fn panicking_session_is_contained_in_batch_mode() {
        let engine = DetectionEngine::new(EngineConfig {
            workers: 1,
            cross_session_batch: true,
            drain_batch: 8,
            ..EngineConfig::default()
        });
        let (logger_a, det_a) = parts(1e6, 5);
        let (session_a, outcomes_a) = engine.add_session(logger_a, det_a);
        let (logger_b, det_b) = parts(1e6, 5);
        let (session_b, outcomes_b) = engine.add_session(logger_b, det_b);

        for i in 0..6 {
            if i == 2 {
                session_a.submit(poison_tick()).unwrap();
            } else {
                // Past the poison tick the submit races the drain
                // worker's containment close; either way the tick
                // stays out of A's stream.
                let submitted = session_a.submit(tick(0.1));
                if i < 2 {
                    submitted.unwrap();
                }
            }
            session_b.submit(tick(0.2)).unwrap();
        }
        engine.drain();

        assert_eq!(outcomes_a.try_iter().count(), 2);
        let b_steps: Vec<AdaptiveStep> = outcomes_b.try_iter().map(|o| o.step).collect();
        assert_eq!(b_steps.len(), 6);
        assert_eq!(session_a.submit(tick(0.1)), Err(SubmitError::SessionClosed));

        // B's stream matches direct stepping — the failure did not
        // perturb the surviving lanes.
        let (mut logger, mut det) = parts(1e6, 5);
        for (i, got) in b_steps.iter().enumerate() {
            logger.record(Vector::from_slice(&[0.2]), Vector::from_slice(&[0.0]));
            let want = det.step(&logger);
            assert_eq!(*got, want, "tick {i}");
        }
    }
}
