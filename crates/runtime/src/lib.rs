//! Online multi-session detection runtime for AWSAD.
//!
//! The paper evaluates one detector on one plant at a time; a deployed
//! monitoring system watches *fleets* — many plant instances streaming
//! measurements concurrently, each needing its own sliding-window
//! logger, adaptive detector, and deadline estimates. This crate turns
//! the per-episode building blocks of `awsad-core` into such an online
//! engine:
//!
//! * [`WorkerPool`] — a fixed set of long-lived worker threads with a
//!   shared FIFO injector queue (`std` sync primitives only). One pool
//!   serves every session; it also backs `awsad-sim`'s Monte-Carlo
//!   batch runner via [`WorkerPool::run_ordered`].
//! * [`DetectionEngine`] / [`SessionHandle`] — one **session** per
//!   plant instance, fed measurement [`Tick`]s through a bounded
//!   queue. Ticks within a session are processed strictly in
//!   submission order (the detector is stateful), so each session's
//!   [`TickOutcome`] stream is byte-identical to stepping the detector
//!   directly. One drain steps every session: it gathers queued ticks,
//!   groups the sessions (each alone, or same-plant sessions together
//!   under [`EngineConfig::cross_session_batch`]) and steps the groups
//!   concurrently on the pool.
//! * [`SessionHandle::step_batch`] — run-to-completion: steps one
//!   session's batch on the calling thread through the drain's own
//!   group step, as a group of that session alone, and returns the
//!   outcomes. The servers use it on engines built with
//!   [`DetectionEngine::without_pool`], so no tick crosses a thread
//!   between the socket and its reply.
//! * **Backpressure** — [`BackpressurePolicy::Block`] throttles the
//!   producer when a queue is full; [`BackpressurePolicy::Degrade`]
//!   accepts the tick but processes it on the documented cheap path
//!   (window grown to `w_m`, no reachability query, outcome flagged
//!   degraded). A `step_batch` call has no queue: its batch stands in
//!   for one, so under Degrade the ticks past `queue_capacity` degrade.
//! * [`RuntimeMetrics`] — relaxed-atomic counters for throughput,
//!   alarms, degraded ticks, queue high-water, and fixed-bucket
//!   latency histograms for the logging and detection stages.
//!
//! The reachability query is the dominant per-tick cost; sessions can
//! install an `awsad_reach::DeadlineCache` on their detector before
//! registration to memoize it (a cached answer is the walk's own, so
//! no decision changes).
//!
//! See `examples/streaming_detection.rs` at the workspace root for a
//! 64-session end-to-end run.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod metrics;
mod pool;

pub use engine::{
    BackpressurePolicy, DetectionEngine, EngineConfig, SessionHandle, SessionId, SessionSnapshot,
    SubmitError, Tick, TickOutcome,
};
pub use metrics::{bucket_bound_ns, LatencyHistogram, RuntimeMetrics, LATENCY_BUCKETS};
pub use pool::WorkerPool;
