use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
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
    /// session's worker drains a slot. Nothing is ever degraded; the
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
    /// How many queued ticks one drain cycle pops and processes per
    /// session under a single state-lock acquisition (clamped to ≥ 1).
    /// Bounds both the lock hold time and the size of the coalesced
    /// deadline-cache prewarm (scalar mode) or the per-session share
    /// of a cross-session batch (batch mode).
    pub drain_batch: usize,
    /// Opt into the cross-session batched drain: instead of one drain
    /// job per session, a single mega-drain gathers waiting ticks from
    /// *every* session, groups sessions whose detectors share a plant
    /// model and window geometry, and steps each group through
    /// [`awsad_core::BatchPlan`] — structure-of-arrays kernels that
    /// amortize the reachability walk and window means across lanes.
    /// Every session batches; degraded ticks are stepped by
    /// [`AdaptiveDetector::step_degraded`] beside their group.
    /// Outcomes are bit-identical to the per-session path either way.
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
    /// Whether a drain job for this session is queued or running on
    /// the pool. At most one at a time — this is what serializes a
    /// session's ticks (per-session FIFO) while different sessions
    /// drain concurrently.
    scheduled: bool,
    closed: bool,
    next_seq: u64,
    /// Snapshot generations handed out so far (see
    /// [`SessionSnapshot::generation`]); seeded from the restoring
    /// snapshot so the lineage's counter survives migration.
    generation: u64,
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
    /// Signalled when a queue slot frees up (Block producers wait) and
    /// on close.
    space: Condvar,
    state: Mutex<SessionState>,
    /// Batch-grouping key (batch mode only; `0` otherwise): sessions
    /// with equal keys share an estimator walk fingerprint, seeding
    /// radius and window clamp range, so the mega-drain may step them
    /// through one [`BatchPlan`] group. Behind a mutex because a
    /// mid-stream recalibration swaps the estimator fingerprint; it is
    /// only written while the session is quiescent and unclaimed
    /// (inbox lock held, queue empty, `scheduled` false), and the
    /// mega-drain reads it only after claiming the session, so a read
    /// taken under either discipline is stable for the whole drain.
    batch_key: Mutex<u64>,
    /// Set when a panic escaped this session's detector or logger
    /// (e.g. a wrong-dimension tick tripping [`DataLogger::record`]'s
    /// assert). A failed session is closed, its queued ticks are
    /// dropped (with the pending count refunded) and it is never
    /// stepped again — the failure is contained to this session
    /// instead of poisoning the engine's locks.
    failed: AtomicBool,
}

impl Drop for SessionSlot {
    fn drop(&mut self) {
        // In batch mode the registry holds only weak references, so a
        // handle dropped with ticks still queued can take the slot —
        // and the ticks — down before any drain claims them. Refund
        // the pending count so `DetectionEngine::drain` still
        // terminates (the ticks are gone; their outcomes channel died
        // with the handle anyway).
        let leftover = self
            .inbox
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .ticks
            .len() as u64;
        if leftover > 0 {
            let mut pending = lock_recover(&self.engine.pending);
            *pending = pending.saturating_sub(leftover);
            if *pending == 0 {
                self.engine.idle.notify_all();
            }
        }
    }
}

struct EngineShared {
    config: EngineConfig,
    metrics: MetricsInner,
    /// Ticks submitted and not yet fully processed, across all
    /// sessions; guards the idle condition for [`DetectionEngine::drain`].
    pending: Mutex<u64>,
    idle: Condvar,
    next_id: Mutex<u64>,
    /// Batch mode only: every session ever added, for the mega-drain's
    /// gather pass. Weak so closed-and-dropped sessions don't leak
    /// (dead entries are pruned on each gather).
    sessions: Mutex<Vec<Weak<SessionSlot>>>,
    /// Batch mode only: whether a mega-drain job is queued or running.
    /// At most one at a time — it is the cross-session analogue of
    /// `Inbox::scheduled`.
    batch_scheduled: Mutex<bool>,
}

/// An online multi-session detection engine.
///
/// Each **session** owns one plant instance's detection state — a
/// [`DataLogger`] plus an [`AdaptiveDetector`] (optionally with a
/// deadline cache installed) — and receives measurement [`Tick`]s
/// through a bounded queue. A fixed [`WorkerPool`] shared by all
/// sessions drains the queues (an engine built
/// [`without_pool`](DetectionEngine::without_pool) drains on the
/// submitting thread, or steps batches where they arrive through
/// [`SessionHandle::step_batch`]): sessions are independent and process
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
    /// works, and drains the session on the submitting thread before
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
                batch_scheduled: Mutex::new(false),
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
        if self.shared.config.cross_session_batch {
            lock_recover(&self.shared.sessions).push(Arc::downgrade(&slot));
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
        self.schedule_drain(inbox);
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
        let engine = &self.slot.engine;
        let mut inbox = lock_recover(&self.slot.inbox);
        if inbox.closed {
            return Err(SubmitError::SessionClosed);
        }
        let seq = inbox.next_seq;
        inbox.next_seq += 1;
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
            degraded: true,
            tick,
        });
        self.schedule_drain(inbox);
        Ok(())
    }

    /// Steps a batch of this session's ticks on the calling thread and
    /// returns their outcomes in order — the run-to-completion entry
    /// point for hosts that answer each request in the turn that read
    /// it (the `awsad-net` server). No queue, channel or worker is
    /// involved.
    ///
    /// The ticks take the pool drain's own scalar path: in chunks of
    /// [`EngineConfig::drain_batch`] (each chunk prewarms the deadline
    /// cache with one batched walk), logged, then stepped. The batch
    /// stands in for the session queue, so under
    /// [`BackpressurePolicy::Degrade`] tick `i` takes the degraded step
    /// exactly when `i >= queue_capacity`; under
    /// [`BackpressurePolicy::Block`] none does — the caller steps
    /// before it reads more, which is its backpressure. Every
    /// [`RuntimeMetrics`] counter moves as it does for submitted ticks,
    /// except `queue_depth_high_water`: nothing is queued.
    ///
    /// Ticks already [`submit`](Self::submit)ted to this session are
    /// processed first (the call waits for them, as
    /// [`SessionHandle::snapshot`] does), so `seq` numbering stays one
    /// FIFO. A panic inside the logger or detector fails the session
    /// exactly as in a pool drain: the outcomes stop before the
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
            // Claim the session as a drain does, so no pool drain or
            // snapshot runs while it steps here.
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
        let mut chunk = Vec::with_capacity(config.drain_batch.min(n));
        let mut state = lock_recover(&self.slot.state);
        let SessionState {
            logger, detector, ..
        } = &mut *state;
        let mut ticks = ticks.take(n).enumerate().peekable();
        while let Some((i, tick)) = ticks.next() {
            chunk.push(QueuedTick {
                seq: first_seq + i as u64,
                degraded: i >= degrade_from,
                tick,
            });
            if chunk.len() == config.drain_batch || ticks.peek().is_none() {
                process_batch_scalar(&self.slot, logger, detector, &mut chunk, |outcome| {
                    outcomes.push(outcome)
                });
                // A contained panic failed the session: the rest of
                // the batch is dropped, as a pool drain drops a failed
                // session's queue.
                if self.slot.failed.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
        drop(state);

        let mut inbox = lock_recover(&self.slot.inbox);
        inbox.scheduled = false;
        if inbox.ticks.is_empty() {
            drop(inbox);
        } else {
            // A submit landed while the session was claimed and found
            // it scheduled; start the drain it could not.
            self.schedule_drain(inbox);
        }
        self.slot.space.notify_all();
        Ok(outcomes)
    }

    /// Queues whatever drain the engine mode calls for after a push:
    /// scalar mode schedules this session's own drain (serialized by
    /// `Inbox::scheduled`), batch mode rings the engine-wide
    /// mega-drain (serialized by `EngineShared::batch_scheduled` —
    /// per-session `scheduled` is left alone; the mega-drain uses it
    /// as its claim marker during gather).
    ///
    /// Without a pool the drain runs right here, on the submitting
    /// thread, before `submit` returns.
    fn schedule_drain(&self, mut inbox: std::sync::MutexGuard<'_, Inbox>) {
        let engine = &self.slot.engine;
        if engine.config.cross_session_batch {
            drop(inbox);
            let mut scheduled = lock_recover(&engine.batch_scheduled);
            if *scheduled {
                return;
            }
            *scheduled = true;
            // Released before an inline drain, which retakes it to
            // retire.
            drop(scheduled);
            let shared = Arc::clone(engine);
            match &self.pool {
                Some(pool) => {
                    let pool2 = Arc::clone(pool);
                    pool.execute(move || mega_drain(&shared, Some(&pool2)));
                }
                None => mega_drain(&shared, None),
            }
        } else {
            let schedule = !inbox.scheduled;
            inbox.scheduled = true;
            drop(inbox);
            if schedule {
                match &self.pool {
                    Some(pool) => {
                        let slot = Arc::clone(&self.slot);
                        pool.execute(move || drain_session(&slot));
                    }
                    None => drain_session(&self.slot),
                }
            }
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
        // No drain can be running (scheduled is false) and none can
        // start (that requires the inbox lock we hold), so the state
        // lock is immediately available and the lock order here
        // (inbox → state) cannot deadlock against drain_session's
        // state → inbox.
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
        // Same lock order and reasoning as `snapshot`: no drain is
        // running or can start while we hold the inbox lock, so the
        // state lock is immediately available and deadlock-free.
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

/// Drains one session's inbox on a pool worker (scalar mode). At most
/// one instance per session runs at a time (guarded by
/// `Inbox::scheduled`), so outcomes leave in submission order.
///
/// Ticks are popped and processed in batches of up to
/// [`EngineConfig::drain_batch`]: the session state lock is taken
/// *first* and the inbox popped under it, so a stalled session stalls
/// the pop too (queued ticks keep counting against the queue capacity
/// until the session can actually run).
fn drain_session(slot: &SessionSlot) {
    let drain_batch = slot.engine.config.drain_batch;
    let mut batch: Vec<QueuedTick> = Vec::with_capacity(drain_batch);
    loop {
        let mut state = lock_recover(&slot.state);
        batch.clear();
        {
            let mut inbox = lock_recover(&slot.inbox);
            while batch.len() < drain_batch {
                match inbox.ticks.pop_front() {
                    Some(t) => batch.push(t),
                    None => break,
                }
            }
            if batch.is_empty() {
                inbox.scheduled = false;
                drop(inbox);
                // Snapshot takers wait for the quiescent state this
                // transition just established.
                slot.space.notify_all();
                return;
            }
        }
        // Slots freed up: wake every blocked producer (a whole batch
        // of capacity may have opened at once).
        slot.space.notify_all();

        let engine = &slot.engine;
        let processed = state.process_queued(slot, &mut batch);
        drop(state);

        let mut pending = lock_recover(&engine.pending);
        *pending -= processed;
        if *pending == 0 {
            engine.idle.notify_all();
        }
    }
}

impl SessionState {
    /// [`process_batch_scalar`] with every outcome sent down the
    /// session's channel — the pool drains' way out.
    fn process_queued(&mut self, slot: &SessionSlot, batch: &mut Vec<QueuedTick>) -> u64 {
        let SessionState {
            logger,
            detector,
            outcomes,
        } = self;
        process_batch_scalar(slot, logger, detector, batch, |outcome| {
            // The receiver may be gone (caller only wanted metrics).
            let _ = outcomes.send(outcome);
        })
    }
}

/// Steps one session through an already-popped batch of its ticks on
/// the scalar path — the common core of the per-session drain and
/// [`SessionHandle::step_batch`]. Hands each outcome to `emit`, in
/// order. Updates every metric except `ticks_submitted` and the
/// pending count (the callers own those, at different
/// granularities). Returns the number of ticks processed.
///
/// When the batch carries more than one tick and the detector has a
/// deadline cache, the batch's estimates are prewarmed with one
/// batched reachability walk before the per-tick steps — coalescing
/// what would otherwise be per-tick cache-miss walks. Prewarmed
/// entries are bit-identical to miss-path entries, so outcomes are
/// unchanged.
fn process_batch_scalar(
    slot: &SessionSlot,
    logger: &mut DataLogger,
    detector: &mut AdaptiveDetector,
    batch: &mut Vec<QueuedTick>,
    mut emit: impl FnMut(TickOutcome),
) -> u64 {
    let engine = &slot.engine;

    if batch.len() > 1 && detector.has_deadline_cache() {
        let estimates: Vec<&Vector> = batch
            .iter()
            .filter(|q| !q.degraded)
            .map(|q| &q.tick.estimate)
            .collect();
        if !estimates.is_empty() {
            let inserted = detector.prewarm_deadline_cache(&estimates);
            if inserted > 0 {
                engine
                    .metrics
                    .batched_deadline_queries
                    .fetch_add(inserted as u64, Ordering::Relaxed);
            }
        }
    }

    let processed = batch.len() as u64;
    let mut degraded_ticks = 0u64;
    let mut alarms = 0u64;
    let mut alloc_free = 0u64;
    for queued in batch.drain(..) {
        // A session that panicked earlier in this very batch is
        // failed: its remaining ticks are consumed without stepping
        // (they still count as processed for the pending count).
        if slot.failed.load(Ordering::Relaxed) {
            continue;
        }
        let t0 = Instant::now();
        // Contain a panicking step to this session: the logger assert
        // on a wrong-dimension tick (or any panic inside the detector)
        // must not unwind through the drain — that would poison the
        // engine's locks and cascade the panic into every other
        // session's submit. Catch it, fail this session, move on.
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            logger.record(queued.tick.estimate, queued.tick.input);
            let t1 = Instant::now();
            let step = if queued.degraded {
                detector.step_degraded(logger)
            } else {
                detector.step(logger)
            };
            (step, t1)
        }));
        let Ok((step, t1)) = stepped else {
            fail_session(slot);
            continue;
        };
        let t2 = Instant::now();

        engine.metrics.log_latency.record(t1 - t0);
        engine.metrics.detect_latency.record(t2 - t1);
        if queued.degraded {
            degraded_ticks += 1;
        } else if detector.last_step_was_alloc_free() {
            alloc_free += 1;
        }
        if step.alarm() {
            alarms += 1;
        }
        emit(TickOutcome {
            session: slot.id,
            seq: queued.seq,
            degraded: queued.degraded,
            step,
        });
    }

    engine
        .metrics
        .ticks_processed
        .fetch_add(processed, Ordering::Relaxed);
    if degraded_ticks > 0 {
        engine
            .metrics
            .degraded_ticks
            .fetch_add(degraded_ticks, Ordering::Relaxed);
    }
    if alarms > 0 {
        engine
            .metrics
            .alarms_raised
            .fetch_add(alarms, Ordering::Relaxed);
    }
    if alloc_free > 0 {
        engine
            .metrics
            .alloc_free_ticks
            .fetch_add(alloc_free, Ordering::Relaxed);
    }
    processed
}

/// Fails one session after a panic escaped its logger/detector step:
/// marks it failed and closed (further submits error with
/// [`SubmitError::SessionClosed`]), drops its queued ticks with the
/// pending count refunded so [`DetectionEngine::drain`] still
/// terminates, and wakes blocked producers and snapshot takers. The
/// session's outcome stream simply ends; every other session keeps
/// running — this is the containment that replaces the old
/// lock-poisoning panic cascade.
fn fail_session(slot: &SessionSlot) {
    slot.failed.store(true, Ordering::Relaxed);
    let mut inbox = lock_recover(&slot.inbox);
    let dropped = inbox.ticks.len() as u64;
    inbox.ticks.clear();
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
        let mut pending = lock_recover(&slot.engine.pending);
        *pending = pending.saturating_sub(dropped);
        if *pending == 0 {
            slot.engine.idle.notify_all();
        }
    }
}

/// Countdown used by the mega-drain to wait for the group tasks it
/// scattered onto spare pool workers.
struct GroupLatch {
    remaining: Mutex<usize>,
    done: Condvar,
}

/// The cross-session batched drain (batch mode's replacement for the
/// per-session [`drain_session`] jobs). At most one runs per engine
/// (guarded by `EngineShared::batch_scheduled`).
///
/// Each round it **gathers** up to [`EngineConfig::drain_batch`]
/// waiting ticks from every registered session (claiming each via
/// `Inbox::scheduled`, exactly like a per-session drain would),
/// groups the claimed sessions by [`SessionSlot::batch_key`],
/// **batch-detects** each group through one [`BatchPlan`] — lock-step
/// across sessions, structure-of-arrays kernels under the hood — and
/// **scatters** whole groups onto spare pool workers when there are
/// any (the gather thread always processes the first group itself, so
/// progress never depends on another worker being free). Degraded
/// ticks are stepped beside their group, and every outcome stream is
/// bit-identical to scalar mode.
///
/// With no pool (an engine built by [`DetectionEngine::without_pool`])
/// it runs on the submitting thread and processes every group itself.
fn mega_drain(shared: &Arc<EngineShared>, pool: Option<&Arc<WorkerPool>>) {
    let drain_batch = shared.config.drain_batch;
    let mut plan = BatchPlan::new();
    loop {
        // Gather: claim a tick batch from every session with work.
        let slots: Vec<Arc<SessionSlot>> = {
            let mut registry = lock_recover(&shared.sessions);
            registry.retain(|weak| weak.strong_count() > 0);
            registry.iter().filter_map(Weak::upgrade).collect()
        };
        let mut gathered: Vec<(u64, Arc<SessionSlot>, Vec<QueuedTick>)> = Vec::new();
        let mut round_ticks = 0u64;
        for slot in slots {
            let mut inbox = lock_recover(&slot.inbox);
            if inbox.scheduled || inbox.ticks.is_empty() {
                continue;
            }
            let take = inbox.ticks.len().min(drain_batch);
            let batch: Vec<QueuedTick> = inbox.ticks.drain(..take).collect();
            inbox.scheduled = true;
            drop(inbox);
            // Queue slots freed: wake blocked producers.
            slot.space.notify_all();
            // The claim above is what pins the key: a recalibration
            // waits for `scheduled` to clear before rewriting it, so
            // this copy stays valid for the whole round.
            let key = *lock_recover(&slot.batch_key);
            round_ticks += batch.len() as u64;
            gathered.push((key, slot, batch));
        }

        if gathered.is_empty() {
            // A tick is queued only after the pending count rises
            // (both under its session's inbox lock), so pending == 0
            // here proves no session holds unclaimed work and the
            // drain may retire. pending > 0 with an empty gather means
            // a submit is mid-flight (or a dying session is about to
            // refund its ticks) — spin until it lands. Holding the
            // batch_scheduled lock across the check closes the race
            // with a submit that just pushed: either it finds the flag
            // still set (we saw its pending rise and loop again), or
            // we retired first and its schedule attempt starts a fresh
            // drain.
            let mut scheduled = lock_recover(&shared.batch_scheduled);
            let pending = lock_recover(&shared.pending);
            if *pending == 0 {
                *scheduled = false;
                return;
            }
            drop(pending);
            drop(scheduled);
            std::thread::yield_now();
            continue;
        }

        // Group claimed sessions by batch key.
        gathered.sort_by_key(|(key, _, _)| *key);
        let mut groups: Vec<Vec<(Arc<SessionSlot>, Vec<QueuedTick>)>> = Vec::new();
        let mut prev_key = None;
        for (key, slot, batch) in gathered {
            if prev_key != Some(key) {
                groups.push(Vec::new());
                prev_key = Some(key);
            }
            groups.last_mut().expect("just pushed").push((slot, batch));
        }

        // Scatter: spare workers take whole groups. Never wait on a
        // dispatched task unless another worker exists to run it.
        let spare = pool.filter(|pool| pool.workers() > 1);
        if let (true, Some(pool)) = (groups.len() > 1, spare) {
            let latch = Arc::new(GroupLatch {
                remaining: Mutex::new(groups.len() - 1),
                done: Condvar::new(),
            });
            let mut rest = groups.into_iter();
            let first = rest.next().expect("non-empty groups");
            for group in rest {
                let shared2 = Arc::clone(shared);
                let latch2 = Arc::clone(&latch);
                pool.execute(move || {
                    let mut plan = BatchPlan::new();
                    process_group(&shared2, &mut plan, group);
                    let mut remaining = lock_recover(&latch2.remaining);
                    *remaining -= 1;
                    if *remaining == 0 {
                        latch2.done.notify_all();
                    }
                });
            }
            process_group(shared, &mut plan, first);
            let mut remaining = lock_recover(&latch.remaining);
            while *remaining > 0 {
                remaining = wait_recover(&latch.done, remaining);
            }
        } else {
            for group in groups {
                process_group(shared, &mut plan, group);
            }
        }

        let mut pending = lock_recover(&shared.pending);
        *pending -= round_ticks;
        if *pending == 0 {
            shared.idle.notify_all();
        }
    }
}

/// Releases a mega-drain claim on one session: the batch-mode
/// counterpart of a per-session drain's empty-pop transition.
fn finish_slot(slot: &SessionSlot) {
    let mut inbox = lock_recover(&slot.inbox);
    inbox.scheduled = false;
    drop(inbox);
    // Snapshot takers and blocked producers re-check their conditions.
    slot.space.notify_all();
}

/// Steps a group of same-key sessions in lock-step: tick position 0 of
/// every session forms one [`BatchPlan`] lane set, then position 1,
/// and so on — per-session FIFO holds because each session contributes
/// at most one tick per position, in order. Degraded ticks are stepped
/// scalar (`step_degraded`) inline at their position; everything else
/// rides the structure-of-arrays batch. Clears every member's claim on
/// the way out.
///
/// All member state locks are held for the whole group (the gather
/// already claimed every member via `Inbox::scheduled`, so the only
/// other state-lock takers — snapshots, cache stats — briefly wait,
/// exactly as they would behind a scalar drain's batch).
fn process_group(
    shared: &EngineShared,
    plan: &mut BatchPlan,
    group: Vec<(Arc<SessionSlot>, Vec<QueuedTick>)>,
) {
    let (slots, mut batches): (Vec<_>, Vec<_>) = group.into_iter().unzip();
    let mut guards: Vec<_> = slots.iter().map(|slot| lock_recover(&slot.state)).collect();
    let mut cursors = vec![0usize; slots.len()];
    let mut processed = 0u64;
    let mut degraded_ticks = 0u64;
    let mut alarms = 0u64;
    let mut alloc_free = 0u64;
    let mut batch_ticks = 0u64;
    let mut lane_meta: Vec<(usize, u64)> = Vec::new();
    let mut steps: Vec<AdaptiveStep> = Vec::new();
    loop {
        let t0 = Instant::now();
        lane_meta.clear();
        let mut lanes: Vec<BatchLane<'_>> = Vec::new();
        let mut recorded = 0u32;
        for (k, guard) in guards.iter_mut().enumerate() {
            let Some(queued) = batches[k].get_mut(cursors[k]) else {
                continue;
            };
            cursors[k] += 1;
            let estimate = std::mem::replace(&mut queued.tick.estimate, Vector::zeros(0));
            let input = std::mem::replace(&mut queued.tick.input, Vector::zeros(0));
            let degraded = queued.degraded;
            let seq = queued.seq;
            let state: &mut SessionState = &mut *guard;
            // Same containment as the scalar path: a panic in this
            // lane's record (or degraded step) fails only this
            // session; the rest of the group keeps batching.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                state.logger.record(estimate, input);
                degraded.then(|| state.detector.step_degraded(&state.logger))
            }));
            let Ok(degraded_step) = outcome else {
                // Consume the failed session's remaining gathered
                // ticks without stepping (the caller's pending-count
                // decrement already covers them).
                processed += (batches[k].len() - cursors[k] + 1) as u64;
                cursors[k] = batches[k].len();
                fail_session(&slots[k]);
                continue;
            };
            recorded += 1;
            if let Some(step) = degraded_step {
                degraded_ticks += 1;
                if step.alarm() {
                    alarms += 1;
                }
                let _ = state.outcomes.send(TickOutcome {
                    session: slots[k].id,
                    seq,
                    degraded: true,
                    step,
                });
            } else {
                lane_meta.push((k, seq));
                lanes.push(BatchLane {
                    logger: &state.logger,
                    detector: &mut state.detector,
                });
            }
        }
        // recorded == 0 means every session is either exhausted or
        // was failed above (which consumes its remaining ticks), so
        // the group is done.
        if recorded == 0 {
            break;
        }
        processed += u64::from(recorded);
        let t1 = Instant::now();
        let n_lanes = lanes.len();
        steps.clear();
        if n_lanes > 0 {
            plan.step_group(&mut lanes, &mut steps);
        }
        drop(lanes);
        let t2 = Instant::now();

        // One timing span covers the whole position; attribute the
        // mean to each tick so batch-mode histograms stay comparable
        // with scalar-mode ones (same count, same total).
        shared
            .metrics
            .log_latency
            .record_n((t1 - t0) / recorded, u64::from(recorded));
        if n_lanes > 0 {
            shared
                .metrics
                .detect_latency
                .record_n((t2 - t1) / n_lanes as u32, n_lanes as u64);
            batch_ticks += n_lanes as u64;
            shared
                .metrics
                .batch_sessions_hwm
                .fetch_max(n_lanes as u64, Ordering::Relaxed);
        }

        for (&(k, seq), step) in lane_meta.iter().zip(steps.drain(..)) {
            let state = &guards[k];
            if step.alarm() {
                alarms += 1;
            }
            if state.detector.last_step_was_alloc_free() {
                alloc_free += 1;
            }
            let _ = state.outcomes.send(TickOutcome {
                session: slots[k].id,
                seq,
                degraded: false,
                step,
            });
        }
    }
    drop(guards);

    shared
        .metrics
        .ticks_processed
        .fetch_add(processed, Ordering::Relaxed);
    if degraded_ticks > 0 {
        shared
            .metrics
            .degraded_ticks
            .fetch_add(degraded_ticks, Ordering::Relaxed);
    }
    if alarms > 0 {
        shared
            .metrics
            .alarms_raised
            .fetch_add(alarms, Ordering::Relaxed);
    }
    if alloc_free > 0 {
        shared
            .metrics
            .alloc_free_ticks
            .fetch_add(alloc_free, Ordering::Relaxed);
    }
    if batch_ticks > 0 {
        shared
            .metrics
            .batch_ticks
            .fetch_add(batch_ticks, Ordering::Relaxed);
    }
    for slot in &slots {
        finish_slot(slot);
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
        // Two distinct model groups on a multi-worker pool: the
        // mega-drain dispatches one group to a spare worker and
        // processes the other inline. Outcomes must still match
        // direct stepping exactly.
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
        // A handle dropped with ticks still queued takes the slot (and
        // the ticks) down before the mega-drain can claim them; the
        // slot's Drop must refund the pending count so drain returns.
        let engine = DetectionEngine::new(EngineConfig {
            workers: 1,
            cross_session_batch: true,
            ..EngineConfig::default()
        });
        let (logger, det) = parts(0.5, 10);
        let (session, outcomes) = engine.add_session(logger, det);
        for _ in 0..10 {
            session.submit(tick(0.0)).unwrap();
        }
        drop(session);
        drop(outcomes);
        engine.drain();
        // Whether the mega-drain won the race or the refund did, the
        // engine must be idle now and stay functional.
        let (logger, det) = parts(0.5, 10);
        let (fresh, fresh_out) = engine.add_session(logger, det);
        fresh.submit(tick(0.0)).unwrap();
        engine.drain();
        assert_eq!(fresh_out.try_iter().count(), 1);
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
