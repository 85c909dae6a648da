//! The AWSAD wire protocol: a versioned, length-prefixed binary
//! framing for detection-as-a-service.
//!
//! Every frame on the wire is
//!
//! ```text
//! u32 BE payload length │ payload
//! ```
//!
//! where the payload starts with a fixed header — the 4-byte magic
//! [`MAGIC`], the protocol version [`VERSION`] (`u16` BE) and a frame
//! type byte — followed by the type-specific body. All integers are
//! big-endian; `f64`s travel as their IEEE-754 bit pattern (`u64` BE),
//! so round-tripping a measurement vector is **bit-exact** — the
//! server-side detector sees exactly the floats the client produced,
//! which is what makes the remote `AdaptiveStep` stream byte-identical
//! to local stepping.
//!
//! Encoding and decoding are explicit hand-rolled routines (no serde
//! on the wire path): the format is frozen by the round-trip tests in
//! this module, and a decoder fed hostile bytes can only fail with a
//! typed [`WireError`] — it never panics and never allocates more than
//! the declared (and size-guarded) frame length.
//!
//! # Correlation ids
//!
//! Any frame may carry an optional **correlation id** appended after
//! its body: exactly eight extra bytes, read as a `u64`. A server
//! echoes a request's correlation id on the reply, which lets a client
//! pair replies with requests instead of trusting stream position —
//! the fix for the reply-desync bug where a timed-out request's late
//! reply was delivered as the answer to the *next* request. The field
//! is append-only in the same style as the metrics counters: frames
//! without it (every pre-correlation peer) decode exactly as before,
//! and [`Frame::decode`] (the strict entry point) still rejects it so
//! legacy round-trip expectations hold. Use
//! [`Frame::decode_enveloped`] / [`read_envelope`] to accept it.

use std::io::{self, Read, Write};

use awsad_core::AdaptiveStep;
use awsad_reach::Deadline;
use awsad_runtime::TickOutcome;

/// First four payload bytes of every AWSAD frame.
pub const MAGIC: [u8; 4] = *b"AWSD";

/// Protocol version spoken by this build. Decoders reject frames
/// carrying any other version with [`WireError::UnsupportedVersion`].
pub const VERSION: u16 = 1;

/// Default upper bound on the payload length a peer will accept.
/// Large enough for a ~8000-tick batch on the 12-state quadrotor,
/// small enough that a hostile length prefix cannot balloon memory.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;

const FRAME_HELLO: u8 = 0x01;
const FRAME_HELLO_ACK: u8 = 0x02;
const FRAME_OPEN_SESSION: u8 = 0x03;
const FRAME_SESSION_OPENED: u8 = 0x04;
const FRAME_TICK: u8 = 0x05;
const FRAME_TICK_OUTCOMES: u8 = 0x06;
const FRAME_CLOSE_SESSION: u8 = 0x07;
const FRAME_SESSION_CLOSED: u8 = 0x08;
const FRAME_METRICS_QUERY: u8 = 0x09;
const FRAME_METRICS_REPLY: u8 = 0x0a;
const FRAME_SNAPSHOT_SESSION: u8 = 0x0b;
const FRAME_SESSION_SNAPSHOT: u8 = 0x0c;
const FRAME_RESTORE_SESSION: u8 = 0x0d;
const FRAME_ERROR: u8 = 0x0f;
const FRAME_REPLICATE_SNAPSHOT: u8 = 0x10;
const FRAME_REPLICATE_ACK: u8 = 0x11;
const FRAME_PROMOTE_SESSION: u8 = 0x12;
const FRAME_RING_UPDATE: u8 = 0x13;
const FRAME_RECALIBRATE: u8 = 0x14;
const FRAME_RECALIBRATE_ACK: u8 = 0x15;

/// A typed decode failure. Every way a byte stream can violate the
/// protocol maps to exactly one variant; the server counts these and
/// drops the offending connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u16),
    /// The frame type byte is not one this version defines.
    UnknownFrameType(u8),
    /// The payload ended before the body it declared was complete.
    Truncated,
    /// The body decoded fully but bytes were left over.
    TrailingBytes(usize),
    /// The declared payload length exceeds the receiver's limit.
    FrameTooLarge {
        /// Declared payload length.
        len: u32,
        /// The receiver's configured maximum.
        max: u32,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A field held a value outside its domain (named for diagnosis).
    BadValue(&'static str),
    /// An **encode-side** failure: a collection is too long for its
    /// `u32` length prefix. Before this variant existed the encoder
    /// cast lengths with `as u32`, silently truncating an oversized
    /// payload into a well-formed frame whose declared counts no
    /// longer matched its data — the peer would decode garbage (or
    /// `Truncated`) with no hint the *sender* was at fault.
    LengthOverflow {
        /// Which field overflowed (named for diagnosis).
        what: &'static str,
        /// The actual element count that did not fit in a `u32`.
        len: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (expected {VERSION})")
            }
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t:#04x}"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame body"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "declared frame length {len} exceeds limit {max}")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadValue(what) => write!(f, "field out of domain: {what}"),
            WireError::LengthOverflow { what, len } => {
                write!(f, "{what} length {len} does not fit the u32 wire prefix")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Server-reported failure categories carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The `model` id in `OpenSession` names no registered simulator.
    BadModel = 1,
    /// The session id is not open on this connection.
    UnknownSession = 2,
    /// A tick's estimate/input length does not match the model.
    DimensionMismatch = 3,
    /// The connection hit its session quota.
    SessionLimit = 4,
    /// The engine did not produce an outcome within the server's
    /// deadline.
    Timeout = 5,
    /// Anything else; the message has details.
    Internal = 6,
    /// A `RestoreSession` snapshot failed validation against the spec
    /// it was restored under. Only emitted in reply to the (new)
    /// `RestoreSession` frame, so legacy clients never see it.
    BadSnapshot = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => ErrorCode::BadModel,
            2 => ErrorCode::UnknownSession,
            3 => ErrorCode::DimensionMismatch,
            4 => ErrorCode::SessionLimit,
            5 => ErrorCode::Timeout,
            6 => ErrorCode::Internal,
            7 => ErrorCode::BadSnapshot,
            _ => return Err(WireError::BadValue("error code")),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorCode::BadModel => "bad model",
            ErrorCode::UnknownSession => "unknown session",
            ErrorCode::DimensionMismatch => "dimension mismatch",
            ErrorCode::SessionLimit => "session limit reached",
            ErrorCode::Timeout => "engine timeout",
            ErrorCode::Internal => "internal error",
            ErrorCode::BadSnapshot => "bad snapshot",
        })
    }
}

/// Client request to open one detection session.
///
/// The model is named by its Table 1 registry row (1..=5, the
/// `awsad_models::Simulator` order); everything else defaults to the
/// model's profiled parameters when left at the sentinel (`0` /
/// empty), so the minimal spec is just a row number.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Table 1 row of the plant model (1-based).
    pub model: u8,
    /// Maximum detection window `w_m` (`0` → the model default).
    pub max_window: u32,
    /// Minimum detection window (usually 0).
    pub min_window: u32,
    /// Per-dimension threshold `τ` (empty → the model's profiled τ).
    pub threshold: Vec<f64>,
    /// Exact deadline-cache capacity (`0` → no cache installed).
    pub cache_capacity: u32,
    /// Number of rows `p` of the output map (`0` when [`Self::output_map`]
    /// is empty).
    pub output_rows: u32,
    /// Row-major output map `C` (`p × n`, flattened) of the plant the
    /// session's tick stream was reconstructed from. Empty = the
    /// legacy fully observable plant (`C = I`). The map does not
    /// change the detector stack — ticks are state estimates either
    /// way — but it travels with the session so snapshots, restores
    /// and replicas describe the scenario losslessly.
    ///
    /// On the wire the pair is an append-only trailing extension,
    /// written only when the map is non-empty; old peers that never
    /// send it decode as `C = I`.
    pub output_map: Vec<f64>,
}

impl SessionSpec {
    /// A spec running model row `model` entirely on its profiled
    /// defaults, without a deadline cache, on a fully observable
    /// plant.
    pub fn model_defaults(model: u8) -> Self {
        SessionSpec {
            model,
            max_window: 0,
            min_window: 0,
            threshold: Vec::new(),
            cache_capacity: 0,
            output_rows: 0,
            output_map: Vec::new(),
        }
    }

    /// Attaches a `rows × n` row-major output map to the spec.
    pub fn with_output_map(mut self, rows: u32, map: Vec<f64>) -> Self {
        self.output_rows = rows;
        self.output_map = map;
        self
    }
}

/// One measurement tick as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTick {
    /// State estimate `x̄_t`.
    pub estimate: Vec<f64>,
    /// Control input `u_t`.
    pub input: Vec<f64>,
}

/// One detection outcome as it travels on the wire — a faithful image
/// of [`awsad_runtime::TickOutcome`] (minus the session id, which the
/// enclosing frame carries once for the whole batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireOutcome {
    /// Submission index within the session.
    pub seq: u64,
    /// Whether the tick took the degraded overload path.
    pub degraded: bool,
    /// `AdaptiveStep::step`.
    pub step: u64,
    /// `AdaptiveStep::deadline` (`None` = `Deadline::Beyond`).
    pub deadline: Option<u64>,
    /// `AdaptiveStep::window`.
    pub window: u64,
    /// `AdaptiveStep::previous_window`.
    pub previous_window: u64,
    /// `AdaptiveStep::current_alarm`.
    pub current_alarm: bool,
    /// `AdaptiveStep::complementary_alarms`.
    pub complementary_alarms: Vec<u64>,
}

impl WireOutcome {
    /// Builds the wire image of an engine outcome.
    pub fn from_outcome(o: &TickOutcome) -> Self {
        WireOutcome {
            seq: o.seq,
            degraded: o.degraded,
            step: o.step.step as u64,
            deadline: o.step.deadline.steps().map(|s| s as u64),
            window: o.step.window as u64,
            previous_window: o.step.previous_window as u64,
            current_alarm: o.step.current_alarm,
            complementary_alarms: o
                .step
                .complementary_alarms
                .iter()
                .map(|&s| s as u64)
                .collect(),
        }
    }

    /// Reconstructs the [`AdaptiveStep`] this outcome carries. The
    /// round trip through [`WireOutcome::from_outcome`] is lossless,
    /// so comparing the result against local stepping with `==` is a
    /// byte-identical check.
    pub fn to_step(&self) -> AdaptiveStep {
        AdaptiveStep {
            step: self.step as usize,
            deadline: match self.deadline {
                Some(s) => Deadline::Within(s as usize),
                None => Deadline::Beyond,
            },
            window: self.window as usize,
            previous_window: self.previous_window as usize,
            current_alarm: self.current_alarm,
            complementary_alarms: self
                .complementary_alarms
                .iter()
                .map(|&s| s as usize)
                .collect(),
        }
    }

    /// Whether any alarm (current or complementary) fired.
    pub fn alarm(&self) -> bool {
        self.current_alarm || !self.complementary_alarms.is_empty()
    }
}

/// Wire image of one retained [`awsad_core::LogEntry`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireLogEntry {
    /// Control step index.
    pub step: u64,
    /// State estimate `x̄_t`.
    pub estimate: Vec<f64>,
    /// Control input `u_t`.
    pub input: Vec<f64>,
    /// Model prediction (`None` for the first logged step).
    pub prediction: Option<Vec<f64>>,
    /// Residual `z_t`.
    pub residual: Vec<f64>,
}

/// Wire image of a full session snapshot
/// ([`awsad_runtime::SessionSnapshot`]): the detector's adaptation
/// state, the logger's retained window, and the session's outcome
/// sequence counter. Floats travel bit-exact, so a restored session's
/// outcome stream is byte-identical to the uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSessionState {
    /// Window size chosen at the previous step (`w_p`).
    pub prev_window: u64,
    /// Steps since the last fresh deadline query.
    pub steps_since_estimate: u64,
    /// Initial-state radius for deadline queries.
    pub initial_radius: f64,
    /// Whether complementary detection is enabled.
    pub complementary_enabled: bool,
    /// Re-estimation period.
    pub reestimation_period: u64,
    /// Carried deadline estimate: `None` = re-query next step,
    /// `Some(None)` = `Deadline::Beyond`, `Some(Some(t))` =
    /// `Deadline::Within(t)`.
    pub cached_deadline: Option<Option<u64>>,
    /// The step index the next record will be assigned.
    pub next_step: u64,
    /// The `seq` the next submitted tick will be assigned.
    pub next_seq: u64,
    /// Retained logger entries, oldest first.
    pub entries: Vec<WireLogEntry>,
    /// The recalibrated plant model in effect, `None` while the
    /// session still runs its configured model.
    ///
    /// On the wire this rides the `cached_deadline` tag byte: tags
    /// 3/4/5 mirror 0/1/2 and additionally announce a recalibration
    /// block *after* the entries vec (`session_state` cannot grow a
    /// plain trailing extension — the spec extension and the
    /// correlation id already follow it in the carrying frames). A
    /// never-recalibrated state keeps tags 0/1/2, so its wire image
    /// stays byte-identical to every pre-recalibration peer.
    pub recalibration: Option<WireRecalibration>,
}

/// Wire image of [`awsad_core::RecalibrationState`]: the plant model a
/// session swapped in mid-stream, so restore, replication and
/// failover rebuild the recalibrated estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRecalibration {
    /// State dimension `n` of the recalibrated matrices.
    pub state_dim: u32,
    /// Input dimension `m` of the recalibrated matrices.
    pub input_dim: u32,
    /// Row-major `Â` (`n × n`, flattened).
    pub a: Vec<f64>,
    /// Row-major `B̂` (`n × m`, flattened).
    pub b: Vec<f64>,
    /// Accepted recalibrations (≥ 1).
    pub count: u64,
}

impl WireSessionState {
    /// Builds the wire image of an engine session snapshot.
    pub fn from_snapshot(snapshot: &awsad_runtime::SessionSnapshot) -> Self {
        let s = &snapshot.state;
        WireSessionState {
            prev_window: s.prev_window as u64,
            steps_since_estimate: s.steps_since_estimate as u64,
            initial_radius: s.initial_radius,
            complementary_enabled: s.complementary_enabled,
            reestimation_period: s.reestimation_period as u64,
            cached_deadline: s.cached_deadline.map(|d| d.steps().map(|t| t as u64)),
            next_step: s.logger.next_step as u64,
            next_seq: snapshot.next_seq,
            entries: s
                .logger
                .entries
                .iter()
                .map(|e| WireLogEntry {
                    step: e.step as u64,
                    estimate: e.estimate.as_slice().to_vec(),
                    input: e.input.as_slice().to_vec(),
                    prediction: e.prediction.as_ref().map(|p| p.as_slice().to_vec()),
                    residual: e.residual.as_slice().to_vec(),
                })
                .collect(),
            recalibration: s.recalibration.as_ref().map(|r| WireRecalibration {
                state_dim: r.a.rows() as u32,
                input_dim: r.b.cols() as u32,
                a: r.a.as_slice().to_vec(),
                b: r.b.as_slice().to_vec(),
                count: r.count,
            }),
        }
    }

    /// Reconstructs the engine snapshot this state carries. The round
    /// trip through [`WireSessionState::from_snapshot`] is lossless;
    /// semantic validation happens at restore time
    /// ([`awsad_runtime::DetectionEngine::restore_session`]).
    ///
    /// # Panics
    ///
    /// If a programmatically constructed recalibration block's matrix
    /// lengths disagree with its declared dimensions — never the case
    /// for decoded frames, whose recalibration blocks are validated
    /// structurally during decode.
    pub fn to_snapshot(&self) -> awsad_runtime::SessionSnapshot {
        use awsad_core::{DetectorSnapshot, LoggerSnapshot, RecalibrationState};
        use awsad_linalg::{Matrix, Vector};
        awsad_runtime::SessionSnapshot {
            state: DetectorSnapshot {
                prev_window: self.prev_window as usize,
                steps_since_estimate: self.steps_since_estimate as usize,
                cached_deadline: self.cached_deadline.map(|d| match d {
                    Some(t) => Deadline::Within(t as usize),
                    None => Deadline::Beyond,
                }),
                initial_radius: self.initial_radius,
                complementary_enabled: self.complementary_enabled,
                reestimation_period: self.reestimation_period as usize,
                recalibration: self.recalibration.as_ref().map(|r| {
                    let n = r.state_dim as usize;
                    let m = r.input_dim as usize;
                    RecalibrationState {
                        a: Matrix::from_row_major(n, n, r.a.clone())
                            .expect("recalibration A validated on decode"),
                        b: Matrix::from_row_major(n, m, r.b.clone())
                            .expect("recalibration B validated on decode"),
                        count: r.count,
                    }
                }),
                logger: LoggerSnapshot {
                    entries: self
                        .entries
                        .iter()
                        .map(|e| awsad_core::LogEntry {
                            step: e.step as usize,
                            estimate: Vector::from_slice(&e.estimate),
                            input: Vector::from_slice(&e.input),
                            prediction: e.prediction.as_ref().map(|p| Vector::from_slice(p)),
                            residual: Vector::from_slice(&e.residual),
                        })
                        .collect(),
                    next_step: self.next_step as usize,
                },
            },
            next_seq: self.next_seq,
            // The wire image deliberately omits the generation
            // counter: `session_state` is the trailing field of
            // `SessionSnapshot`/`RestoreSession` frames, so appending
            // eight bytes here would be indistinguishable from a
            // correlation id. Legacy restores start a fresh lineage;
            // replication carries the generation in
            // `Frame::ReplicateSnapshot` instead.
            generation: 0,
        }
    }
}

/// Wire image of one latency-stage summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireLatency {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
    /// Conservative p50 bound (`None` = no finite bound claimable).
    pub p50_bound_ns: Option<u64>,
    /// Conservative p99 bound (`None` = no finite bound claimable).
    pub p99_bound_ns: Option<u64>,
    /// Samples beyond the histogram's last finite bucket bound.
    pub overflow: u64,
}

/// Wire image of the engine counters plus the server's own transport
/// counters, returned by `MetricsQuery`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireMetrics {
    /// Sessions currently open on the engine.
    pub sessions_active: u64,
    /// Ticks accepted into session queues.
    pub ticks_submitted: u64,
    /// Ticks fully processed.
    pub ticks_processed: u64,
    /// Processed ticks that raised any alarm.
    pub alarms_raised: u64,
    /// Processed ticks that took the degraded path.
    pub degraded_ticks: u64,
    /// Highest simultaneous queue depth observed.
    pub queue_depth_high_water: u64,
    /// Logging-stage latency summary.
    pub log_latency: WireLatency,
    /// Detection-stage latency summary.
    pub detect_latency: WireLatency,
    /// Frames successfully decoded by the server.
    pub frames_in: u64,
    /// Frames written by the server.
    pub frames_out: u64,
    /// Malformed/oversized frames seen (each also drops a connection).
    pub decode_errors: u64,
    /// Connections accepted over the server's lifetime.
    pub connections_opened: u64,
    /// Connections torn down for cause (decode error, I/O error).
    pub connections_dropped: u64,
    /// Non-degraded ticks whose detection stage ran without heap
    /// allocation (see `RuntimeMetrics::alloc_free_ticks`).
    ///
    /// Appended after the v1 field set; a reply from an older server
    /// decodes with this zeroed (see [`Frame::decode`]'s append-only
    /// handling).
    pub alloc_free_ticks: u64,
    /// Deadline-cache entries inserted by coalesced batched walks
    /// (see `RuntimeMetrics::batched_deadline_queries`). Appended
    /// after the v1 field set, zeroed when absent.
    pub batched_deadline_queries: u64,
    /// Sessions evicted by the server's idle-TTL sweep. Third appended
    /// counter (after the two above), zeroed when absent.
    pub sessions_evicted: u64,
    /// Number of I/O shards whose engines were merged into this reply.
    /// `0` means the field was absent (a server that predates it).
    /// Fourth appended counter; always written together with
    /// [`WireMetrics::partial_frame_resumes`], zeroed when absent.
    pub shards: u64,
    /// Frames whose bytes arrived torn across more than one readiness
    /// wakeup and were completed by the incremental decoder resuming
    /// mid-frame. Fifth
    /// appended counter, written together with [`WireMetrics::shards`],
    /// zeroed when absent.
    pub partial_frame_resumes: u64,
    /// Session snapshots accepted into this server's replica store by
    /// cluster replication ingress (`ReplicateSnapshot` frames stored;
    /// stale generations excluded). Sixth appended counter, always
    /// written together with the two below, zeroed when absent.
    pub sessions_replicated: u64,
    /// Replica promotions served (`PromoteSession` frames that turned
    /// a stored backup into a live session). Seventh appended counter,
    /// zeroed when absent.
    pub failovers: u64,
    /// Highest replication backlog observed on the egress side
    /// (snapshots queued but not yet acknowledged by the backup) —
    /// merged across shards by max, like `queue_depth_high_water`.
    /// Eighth appended counter, zeroed when absent.
    pub replication_lag_hwm: u64,
    /// Non-degraded ticks stepped through the cross-session batched
    /// detection path (see `RuntimeMetrics::batch_ticks`). Ninth
    /// appended counter, always written together with the two below,
    /// zeroed when absent.
    pub batch_ticks: u64,
    /// Widest lane set a single batched detection step has covered —
    /// merged across shards by max, like `queue_depth_high_water`.
    /// Tenth appended counter, zeroed when absent.
    pub batch_sessions_hwm: u64,
    /// Non-degraded ticks that fell back to the scalar path while the
    /// engine was in batch mode. Eleventh appended counter, zeroed
    /// when absent.
    pub scalar_fallback_ticks: u64,
    /// Mid-stream recalibrations accepted (`Recalibrate` frames that
    /// swapped a session's plant model in place). Twelfth appended
    /// counter, always written together with the one below, zeroed
    /// when absent.
    pub recalibrations: u64,
    /// `Recalibrate` frames rejected (unknown session, malformed
    /// matrices, or a model the estimator refused). Thirteenth
    /// appended counter, zeroed when absent.
    pub recalibrations_rejected: u64,
}

/// One shard server in a cluster ring announcement
/// ([`Frame::RingUpdate`]): a stable shard id plus the address peers
/// reach it at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingMember {
    /// Stable shard id (survives address changes).
    pub shard: u32,
    /// `host:port` the shard server listens on.
    pub addr: String,
}

/// Every frame the protocol defines. Requests flow client → server;
/// each request is answered by exactly one reply frame (its natural
/// reply or [`Frame::Error`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake request; carries a free-form client name.
    Hello {
        /// The client's self-description (diagnostics only).
        client: String,
    },
    /// Handshake reply; version compatibility is implied (any
    /// mismatch would have failed header decoding).
    HelloAck {
        /// The server's self-description.
        server: String,
    },
    /// Open a detection session.
    OpenSession(SessionSpec),
    /// Reply to `OpenSession`.
    SessionOpened {
        /// Server-assigned session id, unique per server.
        session: u64,
        /// Plant state dimension (ticks must match).
        state_dim: u32,
        /// Plant input dimension (ticks must match).
        input_dim: u32,
    },
    /// Submit a batch of measurement ticks (a single tick is a batch
    /// of one).
    Tick {
        /// Target session.
        session: u64,
        /// Ticks in submission order.
        ticks: Vec<WireTick>,
    },
    /// Reply to `Tick`: one outcome per submitted tick, in order.
    TickOutcomes {
        /// The session the outcomes belong to.
        session: u64,
        /// Outcomes in submission order.
        outcomes: Vec<WireOutcome>,
    },
    /// Close a session (queued ticks still drain server-side).
    CloseSession {
        /// Session to close.
        session: u64,
    },
    /// Reply to `CloseSession`.
    SessionClosed {
        /// The session that was closed.
        session: u64,
    },
    /// Ask for engine + transport counters.
    MetricsQuery,
    /// Reply to `MetricsQuery`.
    MetricsReply(WireMetrics),
    /// Ask for a full state snapshot of one session. The server
    /// blocks (bounded by its outcome deadline) until the session's
    /// queued ticks have drained, so the snapshot is a clean cut.
    SnapshotSession {
        /// Session to snapshot.
        session: u64,
    },
    /// Reply to `SnapshotSession`.
    SessionSnapshot {
        /// The session the state belongs to.
        session: u64,
        /// The captured state.
        state: WireSessionState,
    },
    /// Open a session that resumes from a previously captured state.
    /// Replied to with `SessionOpened` (a fresh server-side id) or an
    /// `Error` with [`ErrorCode::BadSnapshot`].
    RestoreSession {
        /// Configuration to rebuild the detector/logger pair from —
        /// must match the spec the snapshot was taken under.
        spec: SessionSpec,
        /// The state to resume from.
        state: WireSessionState,
    },
    /// Typed failure reply to any request.
    Error {
        /// Failure category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Cluster replication: store `state` as the backup copy of the
    /// session lineage identified by `key` (a cluster-wide replica
    /// key, not a live session id on the receiving server). The
    /// receiver keeps at most one replica per key — the one with the
    /// highest `generation` — and rejects a stale arrival
    /// (`generation` ≤ stored) with [`ErrorCode::BadSnapshot`], which
    /// is what makes out-of-order replication deliveries harmless.
    /// Replied to with [`Frame::ReplicateAck`].
    ReplicateSnapshot {
        /// Cluster-wide replica key of the session lineage.
        key: u64,
        /// Snapshot generation (see
        /// `awsad_runtime::SessionSnapshot::generation`).
        generation: u64,
        /// Configuration to rebuild the detector/logger pair from at
        /// promotion time.
        spec: SessionSpec,
        /// The replicated session state.
        state: WireSessionState,
    },
    /// Reply to [`Frame::ReplicateSnapshot`] (echoing what was
    /// stored) and to [`Frame::RingUpdate`] (with `key` 0 and
    /// `generation` echoing the accepted epoch).
    ReplicateAck {
        /// The replica key that was stored (0 for a ring ack).
        key: u64,
        /// The generation now held for that key (the epoch for a ring
        /// ack).
        generation: u64,
    },
    /// Failover: turn the stored replica under `key` into a live
    /// session owned by the requesting connection. The replica is
    /// consumed (a second promote answers
    /// [`ErrorCode::UnknownSession`]), and the reply is a
    /// [`Frame::SessionSnapshot`] carrying the fresh live session id
    /// plus the exact state it was restored from — the promoting
    /// router compares `next_seq` against its own progress to decide
    /// whether the replica is current or replication lag lost the
    /// tail.
    PromoteSession {
        /// Replica key to promote.
        key: u64,
    },
    /// Cluster control plane: the current ring membership. Servers
    /// with replication enabled re-derive their ring-successor backup
    /// target from this; an `epoch` older than one already accepted
    /// is ignored (acked with the *current* epoch, so the sender can
    /// tell). Replied to with [`Frame::ReplicateAck`].
    RingUpdate {
        /// Monotone membership epoch.
        epoch: u64,
        /// Every live shard, in no particular order.
        members: Vec<RingMember>,
    },
    /// Swap the session's plant model for `(a, b)` mid-stream (an
    /// accepted drift verdict): the server rebuilds the deadline
    /// estimator and cache in place without dropping a queued tick.
    /// Append-only like every post-v1 frame — no version bump.
    /// Replied to with [`Frame::RecalibrateAck`] or an [`Frame::Error`]
    /// ([`ErrorCode::UnknownSession`] / [`ErrorCode::DimensionMismatch`]).
    Recalibrate {
        /// Target session.
        session: u64,
        /// State dimension `n` the matrices are declared at.
        state_dim: u32,
        /// Input dimension `m` the matrices are declared at.
        input_dim: u32,
        /// Row-major `Â` (`n × n`, flattened).
        a: Vec<f64>,
        /// Row-major `B̂` (`n × m`, flattened).
        b: Vec<f64>,
    },
    /// Reply to [`Frame::Recalibrate`].
    RecalibrateAck {
        /// The session that was recalibrated.
        session: u64,
        /// The session's recalibration count after the swap (1 on the
        /// first accepted recalibration).
        recal_count: u64,
    },
}

// ---------------------------------------------------------------------------
// Encoding

struct Enc {
    buf: Vec<u8>,
    /// First length-prefix overflow hit while encoding, if any. The
    /// encoder keeps running after an overflow (the void-returning
    /// builder methods stay composable) but the finished buffer is
    /// only released by [`Enc::finish`] when this is `None`.
    err: Option<WireError>,
}

impl Enc {
    fn new(frame_type: u8) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_be_bytes());
        buf.push(frame_type);
        Enc { buf, err: None }
    }

    /// Writes a collection's `u32` length prefix, **checked**: a count
    /// that does not fit poisons the encoder with
    /// [`WireError::LengthOverflow`] (first overflow wins) instead of
    /// silently truncating the count with `as u32`.
    fn len_prefix(&mut self, what: &'static str, len: usize) {
        match u32::try_from(len) {
            Ok(v) => self.u32(v),
            Err(_) => {
                if self.err.is_none() {
                    self.err = Some(WireError::LengthOverflow { what, len });
                }
                // Keep the buffer structurally valid for the bytes
                // already written; the poisoned encoder never
                // releases it anyway.
                self.u32(u32::MAX);
            }
        }
    }

    fn finish(self) -> Result<Vec<u8>, WireError> {
        match self.err {
            None => Ok(self.buf),
            Some(e) => Err(e),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    fn str(&mut self, s: &str) {
        self.len_prefix("string", s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn f64s(&mut self, v: &[f64]) {
        self.len_prefix("f64 sequence", v.len());
        for &x in v {
            self.f64(x);
        }
    }

    fn u64s(&mut self, v: &[u64]) {
        self.len_prefix("u64 sequence", v.len());
        for &x in v {
            self.u64(x);
        }
    }

    fn latency(&mut self, l: &WireLatency) {
        self.u64(l.count);
        self.f64(l.mean_ns);
        self.opt_u64(l.p50_bound_ns);
        self.opt_u64(l.p99_bound_ns);
        self.u64(l.overflow);
    }

    /// Appends the spec's output-map extension — only when a map is
    /// present, so legacy (`C = I`) frames are byte-identical to what
    /// older peers emit. A written extension is at least 16 bytes
    /// (rows + length prefix + ≥ 1 float), which is what lets the
    /// decoder tell it apart from a bare 8-byte correlation id.
    fn spec_extension(&mut self, spec: &SessionSpec) {
        if !spec.output_map.is_empty() {
            self.u32(spec.output_rows);
            self.f64s(&spec.output_map);
        }
    }

    fn session_state(&mut self, s: &WireSessionState) {
        self.u64(s.prev_window);
        self.u64(s.steps_since_estimate);
        self.f64(s.initial_radius);
        self.u8(s.complementary_enabled as u8);
        self.u64(s.reestimation_period);
        // Deadline tags 3/4/5 mirror 0/1/2 and announce a
        // recalibration block after the entries vec; a
        // never-recalibrated state writes 0/1/2 and is byte-identical
        // to the pre-recalibration wire format.
        let tag_base = if s.recalibration.is_some() { 3 } else { 0 };
        match s.cached_deadline {
            None => self.u8(tag_base),
            Some(None) => self.u8(tag_base + 1),
            Some(Some(t)) => {
                self.u8(tag_base + 2);
                self.u64(t);
            }
        }
        self.u64(s.next_step);
        self.u64(s.next_seq);
        self.len_prefix("log entries", s.entries.len());
        for e in &s.entries {
            self.u64(e.step);
            self.f64s(&e.estimate);
            self.f64s(&e.input);
            match &e.prediction {
                None => self.u8(0),
                Some(p) => {
                    self.u8(1);
                    self.f64s(p);
                }
            }
            self.f64s(&e.residual);
        }
        if let Some(r) = &s.recalibration {
            self.u32(r.state_dim);
            self.u32(r.input_dim);
            self.f64s(&r.a);
            self.f64s(&r.b);
            self.u64(r.count);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue("bool")),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(WireError::BadValue("option tag")),
        }
    }

    /// Length-prefixed element count, sanity-bounded by the bytes
    /// actually remaining so a hostile count cannot pre-allocate.
    fn seq_len(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_size.max(1)) > self.bytes.len() - self.pos {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.seq_len(1)?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.seq_len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.seq_len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn latency(&mut self) -> Result<WireLatency, WireError> {
        Ok(WireLatency {
            count: self.u64()?,
            mean_ns: self.f64()?,
            p50_bound_ns: self.opt_u64()?,
            p99_bound_ns: self.opt_u64()?,
            overflow: self.u64()?,
        })
    }

    fn session_state(&mut self) -> Result<WireSessionState, WireError> {
        let prev_window = self.u64()?;
        let steps_since_estimate = self.u64()?;
        let initial_radius = self.f64()?;
        let complementary_enabled = self.bool()?;
        let reestimation_period = self.u64()?;
        // Tags 3/4/5 mirror 0/1/2 and additionally announce a
        // recalibration block after the entries vec (see
        // `WireSessionState::recalibration`).
        let (cached_deadline, has_recalibration) = match self.u8()? {
            0 => (None, false),
            1 => (Some(None), false),
            2 => (Some(Some(self.u64()?)), false),
            3 => (None, true),
            4 => (Some(None), true),
            5 => (Some(Some(self.u64()?)), true),
            _ => return Err(WireError::BadValue("deadline tag")),
        };
        let next_step = self.u64()?;
        let next_seq = self.u64()?;
        // Minimum entry size: step (8) + three empty vec prefixes
        // (3 × 4) + prediction tag (1).
        let n = self.seq_len(21)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(WireLogEntry {
                step: self.u64()?,
                estimate: self.f64s()?,
                input: self.f64s()?,
                prediction: match self.u8()? {
                    0 => None,
                    1 => Some(self.f64s()?),
                    _ => return Err(WireError::BadValue("prediction tag")),
                },
                residual: self.f64s()?,
            });
        }
        let recalibration = if has_recalibration {
            let state_dim = self.u32()?;
            let input_dim = self.u32()?;
            let a = self.f64s()?;
            let b = self.f64s()?;
            let count = self.u64()?;
            if state_dim == 0 || input_dim == 0 {
                return Err(WireError::BadValue("recalibration dimensions"));
            }
            // u64 arithmetic: (2^32 − 1)² still fits, so a hostile
            // dimension pair cannot overflow the check.
            if a.len() as u64 != state_dim as u64 * state_dim as u64
                || b.len() as u64 != state_dim as u64 * input_dim as u64
            {
                return Err(WireError::BadValue("recalibration matrix size"));
            }
            Some(WireRecalibration {
                state_dim,
                input_dim,
                a,
                b,
                count,
            })
        } else {
            None
        };
        Ok(WireSessionState {
            prev_window,
            steps_since_estimate,
            initial_radius,
            complementary_enabled,
            reestimation_period,
            cached_deadline,
            next_step,
            next_seq,
            entries,
            recalibration,
        })
    }

    /// Bytes not yet consumed — the gate for append-only optional
    /// field extensions (fields added to the *end* of a frame body in
    /// a later revision, decoded only when present).
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads the spec's trailing output-map extension when present.
    ///
    /// More than 8 remaining bytes means an extension: a written
    /// extension is never smaller than 16 bytes (rows, length prefix,
    /// and at least one float), so a bare correlation id — exactly
    /// 8 — can never be mistaken for one. Whatever is left afterwards
    /// (0 or 8 bytes) falls through to the envelope's correlation-id
    /// logic.
    fn spec_extension(&mut self, spec: &mut SessionSpec) -> Result<(), WireError> {
        if self.remaining() > 8 {
            spec.output_rows = self.u32()?;
            spec.output_map = self.f64s()?;
        }
        Ok(())
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.remaining();
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(left))
        }
    }
}

/// A decoded frame together with the optional correlation id its
/// sender appended (see the module docs). Produced by
/// [`Frame::decode_enveloped`] / [`read_envelope`].
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The decoded frame.
    pub frame: Frame,
    /// The appended correlation id, `None` for legacy peers.
    pub corr: Option<u64>,
}

impl Frame {
    fn frame_type(&self) -> u8 {
        match self {
            Frame::Hello { .. } => FRAME_HELLO,
            Frame::HelloAck { .. } => FRAME_HELLO_ACK,
            Frame::OpenSession(_) => FRAME_OPEN_SESSION,
            Frame::SessionOpened { .. } => FRAME_SESSION_OPENED,
            Frame::Tick { .. } => FRAME_TICK,
            Frame::TickOutcomes { .. } => FRAME_TICK_OUTCOMES,
            Frame::CloseSession { .. } => FRAME_CLOSE_SESSION,
            Frame::SessionClosed { .. } => FRAME_SESSION_CLOSED,
            Frame::MetricsQuery => FRAME_METRICS_QUERY,
            Frame::MetricsReply(_) => FRAME_METRICS_REPLY,
            Frame::SnapshotSession { .. } => FRAME_SNAPSHOT_SESSION,
            Frame::SessionSnapshot { .. } => FRAME_SESSION_SNAPSHOT,
            Frame::RestoreSession { .. } => FRAME_RESTORE_SESSION,
            Frame::Error { .. } => FRAME_ERROR,
            Frame::ReplicateSnapshot { .. } => FRAME_REPLICATE_SNAPSHOT,
            Frame::ReplicateAck { .. } => FRAME_REPLICATE_ACK,
            Frame::PromoteSession { .. } => FRAME_PROMOTE_SESSION,
            Frame::RingUpdate { .. } => FRAME_RING_UPDATE,
            Frame::Recalibrate { .. } => FRAME_RECALIBRATE,
            Frame::RecalibrateAck { .. } => FRAME_RECALIBRATE_ACK,
        }
    }

    /// The variant's name, for diagnostics (carried by
    /// `ClientError::UnexpectedReply` so protocol mismatches name
    /// what actually arrived).
    pub fn type_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::HelloAck { .. } => "HelloAck",
            Frame::OpenSession(_) => "OpenSession",
            Frame::SessionOpened { .. } => "SessionOpened",
            Frame::Tick { .. } => "Tick",
            Frame::TickOutcomes { .. } => "TickOutcomes",
            Frame::CloseSession { .. } => "CloseSession",
            Frame::SessionClosed { .. } => "SessionClosed",
            Frame::MetricsQuery => "MetricsQuery",
            Frame::MetricsReply(_) => "MetricsReply",
            Frame::SnapshotSession { .. } => "SnapshotSession",
            Frame::SessionSnapshot { .. } => "SessionSnapshot",
            Frame::RestoreSession { .. } => "RestoreSession",
            Frame::Error { .. } => "Error",
            Frame::ReplicateSnapshot { .. } => "ReplicateSnapshot",
            Frame::ReplicateAck { .. } => "ReplicateAck",
            Frame::PromoteSession { .. } => "PromoteSession",
            Frame::RingUpdate { .. } => "RingUpdate",
            Frame::Recalibrate { .. } => "Recalibrate",
            Frame::RecalibrateAck { .. } => "RecalibrateAck",
        }
    }

    /// Serializes the frame payload (header + body, without the
    /// length prefix — [`write_frame`] adds that), with no
    /// correlation id.
    ///
    /// # Panics
    ///
    /// If a collection in the frame is longer than `u32::MAX` (see
    /// [`Frame::try_encode`] for the fallible form).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_corr(None)
    }

    /// Serializes the frame payload, appending `corr` after the body
    /// when present (see the module docs on correlation ids).
    ///
    /// # Panics
    ///
    /// If a collection in the frame is longer than `u32::MAX` (see
    /// [`Frame::try_encode_with_corr`] for the fallible form).
    pub fn encode_with_corr(&self, corr: Option<u64>) -> Vec<u8> {
        match self.try_encode_with_corr(corr) {
            Ok(payload) => payload,
            Err(e) => panic!("frame not encodable: {e}"),
        }
    }

    /// Fallible form of [`Frame::encode`]: returns
    /// [`WireError::LengthOverflow`] instead of silently truncating
    /// (the pre-fix behavior) or panicking when a collection does not
    /// fit its `u32` length prefix.
    ///
    /// # Errors
    ///
    /// [`WireError::LengthOverflow`] naming the first field whose
    /// length exceeds `u32::MAX`.
    pub fn try_encode(&self) -> Result<Vec<u8>, WireError> {
        self.try_encode_with_corr(None)
    }

    /// Fallible form of [`Frame::encode_with_corr`].
    ///
    /// # Errors
    ///
    /// [`WireError::LengthOverflow`] naming the first field whose
    /// length exceeds `u32::MAX`.
    pub fn try_encode_with_corr(&self, corr: Option<u64>) -> Result<Vec<u8>, WireError> {
        let mut e = Enc::new(self.frame_type());
        match self {
            Frame::Hello { client } => e.str(client),
            Frame::HelloAck { server } => e.str(server),
            Frame::OpenSession(spec) => {
                e.u8(spec.model);
                e.u32(spec.max_window);
                e.u32(spec.min_window);
                e.f64s(&spec.threshold);
                e.u32(spec.cache_capacity);
                e.spec_extension(spec);
            }
            Frame::SessionOpened {
                session,
                state_dim,
                input_dim,
            } => {
                e.u64(*session);
                e.u32(*state_dim);
                e.u32(*input_dim);
            }
            Frame::Tick { session, ticks } => {
                e.u64(*session);
                e.len_prefix("ticks", ticks.len());
                for t in ticks {
                    e.f64s(&t.estimate);
                    e.f64s(&t.input);
                }
            }
            Frame::TickOutcomes { session, outcomes } => {
                e.u64(*session);
                e.len_prefix("outcomes", outcomes.len());
                for o in outcomes {
                    e.u64(o.seq);
                    e.u8(o.degraded as u8);
                    e.u64(o.step);
                    e.opt_u64(o.deadline);
                    e.u64(o.window);
                    e.u64(o.previous_window);
                    e.u8(o.current_alarm as u8);
                    e.u64s(&o.complementary_alarms);
                }
            }
            Frame::CloseSession { session } | Frame::SessionClosed { session } => {
                e.u64(*session);
            }
            Frame::MetricsQuery => {}
            Frame::MetricsReply(m) => {
                e.u64(m.sessions_active);
                e.u64(m.ticks_submitted);
                e.u64(m.ticks_processed);
                e.u64(m.alarms_raised);
                e.u64(m.degraded_ticks);
                e.u64(m.queue_depth_high_water);
                e.latency(&m.log_latency);
                e.latency(&m.detect_latency);
                e.u64(m.frames_in);
                e.u64(m.frames_out);
                e.u64(m.decode_errors);
                e.u64(m.connections_opened);
                e.u64(m.connections_dropped);
                // Appended after the v1 field set — same wire version.
                // Decoders treat these as optional-when-absent, so old
                // and new peers interoperate without a version bump.
                e.u64(m.alloc_free_ticks);
                e.u64(m.batched_deadline_queries);
                e.u64(m.sessions_evicted);
                e.u64(m.shards);
                e.u64(m.partial_frame_resumes);
                e.u64(m.sessions_replicated);
                e.u64(m.failovers);
                e.u64(m.replication_lag_hwm);
                e.u64(m.batch_ticks);
                e.u64(m.batch_sessions_hwm);
                e.u64(m.scalar_fallback_ticks);
                e.u64(m.recalibrations);
                e.u64(m.recalibrations_rejected);
            }
            Frame::SnapshotSession { session } => e.u64(*session),
            Frame::SessionSnapshot { session, state } => {
                e.u64(*session);
                e.session_state(state);
            }
            Frame::RestoreSession { spec, state } => {
                e.u8(spec.model);
                e.u32(spec.max_window);
                e.u32(spec.min_window);
                e.f64s(&spec.threshold);
                e.u32(spec.cache_capacity);
                e.session_state(state);
                e.spec_extension(spec);
            }
            Frame::Error { code, message } => {
                e.u8(*code as u8);
                e.str(message);
            }
            Frame::ReplicateSnapshot {
                key,
                generation,
                spec,
                state,
            } => {
                e.u64(*key);
                e.u64(*generation);
                e.u8(spec.model);
                e.u32(spec.max_window);
                e.u32(spec.min_window);
                e.f64s(&spec.threshold);
                e.u32(spec.cache_capacity);
                e.session_state(state);
                e.spec_extension(spec);
            }
            Frame::ReplicateAck { key, generation } => {
                e.u64(*key);
                e.u64(*generation);
            }
            Frame::PromoteSession { key } => e.u64(*key),
            Frame::RingUpdate { epoch, members } => {
                e.u64(*epoch);
                e.len_prefix("ring members", members.len());
                for m in members {
                    e.u32(m.shard);
                    e.str(&m.addr);
                }
            }
            Frame::Recalibrate {
                session,
                state_dim,
                input_dim,
                a,
                b,
            } => {
                e.u64(*session);
                e.u32(*state_dim);
                e.u32(*input_dim);
                e.f64s(a);
                e.f64s(b);
            }
            Frame::RecalibrateAck {
                session,
                recal_count,
            } => {
                e.u64(*session);
                e.u64(*recal_count);
            }
        }
        if let Some(corr) = corr {
            e.u64(corr);
        }
        e.finish()
    }

    /// Decodes one payload (header + body), **rejecting** any appended
    /// correlation id with [`WireError::TrailingBytes`] — the strict
    /// legacy entry point. Never panics on hostile input; every
    /// failure is a typed [`WireError`].
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        let env = Frame::decode_enveloped(payload)?;
        if env.corr.is_some() {
            return Err(WireError::TrailingBytes(8));
        }
        Ok(env.frame)
    }

    /// Decodes one payload, accepting an optional appended correlation
    /// id: exactly eight bytes after the body are the id; zero extra
    /// bytes is a legacy frame; anything else is
    /// [`WireError::TrailingBytes`].
    pub fn decode_enveloped(payload: &[u8]) -> Result<Envelope, WireError> {
        let mut d = Dec {
            bytes: payload,
            pos: 0,
        };
        let magic: [u8; 4] = d.take(4)?.try_into().unwrap();
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = d.u16()?;
        if version != VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let frame_type = d.u8()?;
        let frame = match frame_type {
            FRAME_HELLO => Frame::Hello { client: d.str()? },
            FRAME_HELLO_ACK => Frame::HelloAck { server: d.str()? },
            FRAME_OPEN_SESSION => {
                let mut spec = SessionSpec {
                    model: d.u8()?,
                    max_window: d.u32()?,
                    min_window: d.u32()?,
                    threshold: d.f64s()?,
                    cache_capacity: d.u32()?,
                    output_rows: 0,
                    output_map: Vec::new(),
                };
                d.spec_extension(&mut spec)?;
                Frame::OpenSession(spec)
            }
            FRAME_SESSION_OPENED => Frame::SessionOpened {
                session: d.u64()?,
                state_dim: d.u32()?,
                input_dim: d.u32()?,
            },
            FRAME_TICK => {
                let session = d.u64()?;
                let n = d.seq_len(8)?;
                let mut ticks = Vec::with_capacity(n);
                for _ in 0..n {
                    ticks.push(WireTick {
                        estimate: d.f64s()?,
                        input: d.f64s()?,
                    });
                }
                Frame::Tick { session, ticks }
            }
            FRAME_TICK_OUTCOMES => {
                let session = d.u64()?;
                let n = d.seq_len(8)?;
                let mut outcomes = Vec::with_capacity(n);
                for _ in 0..n {
                    outcomes.push(WireOutcome {
                        seq: d.u64()?,
                        degraded: d.bool()?,
                        step: d.u64()?,
                        deadline: d.opt_u64()?,
                        window: d.u64()?,
                        previous_window: d.u64()?,
                        current_alarm: d.bool()?,
                        complementary_alarms: d.u64s()?,
                    });
                }
                Frame::TickOutcomes { session, outcomes }
            }
            FRAME_CLOSE_SESSION => Frame::CloseSession { session: d.u64()? },
            FRAME_SESSION_CLOSED => Frame::SessionClosed { session: d.u64()? },
            FRAME_METRICS_QUERY => Frame::MetricsQuery,
            FRAME_METRICS_REPLY => {
                let mut m = WireMetrics {
                    sessions_active: d.u64()?,
                    ticks_submitted: d.u64()?,
                    ticks_processed: d.u64()?,
                    alarms_raised: d.u64()?,
                    degraded_ticks: d.u64()?,
                    queue_depth_high_water: d.u64()?,
                    log_latency: d.latency()?,
                    detect_latency: d.latency()?,
                    frames_in: d.u64()?,
                    frames_out: d.u64()?,
                    decode_errors: d.u64()?,
                    connections_opened: d.u64()?,
                    connections_dropped: d.u64()?,
                    alloc_free_ticks: 0,
                    batched_deadline_queries: 0,
                    sessions_evicted: 0,
                    shards: 0,
                    partial_frame_resumes: 0,
                    sessions_replicated: 0,
                    failovers: 0,
                    replication_lag_hwm: 0,
                    batch_ticks: 0,
                    batch_sessions_hwm: 0,
                    scalar_fallback_ticks: 0,
                    recalibrations: 0,
                    recalibrations_rejected: 0,
                };
                // Append-only extensions, oldest first. The remaining
                // byte count disambiguates each generation because
                // every peer generation writes its *whole* counter set:
                // ≥ 104 means all thirteen counters are present (an
                // eleven-counter peer plus a correlation id is 96,
                // safely below — which is also why the extension jumped
                // from eleven counters straight to thirteen: a twelfth
                // alone would encode as 96 bytes and collide with
                // eleven + id); ≥ 88 means exactly the first eleven
                // (a thirteen-counter payload is never < 104, and
                // eleven counters + a correlation id = 96, which still
                // lands in this branch and leaves the id for the
                // envelope); ≥ 64 means exactly the first eight (an
                // eight-counter peer plus an id = 72; the only other
                // way to reach 64 would be a five-counter peer
                // appending a correlation id plus 16 junk bytes, which
                // no peer emits); ≥ 40 means exactly the first five;
                // ≥ 24 means exactly the first three (two-counter
                // peers predate correlation ids, so 24 can never be
                // two counters plus an id); ≥ 16 means the first two.
                // Whatever is left after the counters (0 or 8 bytes)
                // is handled by the envelope's correlation-id logic.
                if d.remaining() >= 104 {
                    m.alloc_free_ticks = d.u64()?;
                    m.batched_deadline_queries = d.u64()?;
                    m.sessions_evicted = d.u64()?;
                    m.shards = d.u64()?;
                    m.partial_frame_resumes = d.u64()?;
                    m.sessions_replicated = d.u64()?;
                    m.failovers = d.u64()?;
                    m.replication_lag_hwm = d.u64()?;
                    m.batch_ticks = d.u64()?;
                    m.batch_sessions_hwm = d.u64()?;
                    m.scalar_fallback_ticks = d.u64()?;
                    m.recalibrations = d.u64()?;
                    m.recalibrations_rejected = d.u64()?;
                } else if d.remaining() >= 88 {
                    m.alloc_free_ticks = d.u64()?;
                    m.batched_deadline_queries = d.u64()?;
                    m.sessions_evicted = d.u64()?;
                    m.shards = d.u64()?;
                    m.partial_frame_resumes = d.u64()?;
                    m.sessions_replicated = d.u64()?;
                    m.failovers = d.u64()?;
                    m.replication_lag_hwm = d.u64()?;
                    m.batch_ticks = d.u64()?;
                    m.batch_sessions_hwm = d.u64()?;
                    m.scalar_fallback_ticks = d.u64()?;
                } else if d.remaining() >= 64 {
                    m.alloc_free_ticks = d.u64()?;
                    m.batched_deadline_queries = d.u64()?;
                    m.sessions_evicted = d.u64()?;
                    m.shards = d.u64()?;
                    m.partial_frame_resumes = d.u64()?;
                    m.sessions_replicated = d.u64()?;
                    m.failovers = d.u64()?;
                    m.replication_lag_hwm = d.u64()?;
                } else if d.remaining() >= 40 {
                    m.alloc_free_ticks = d.u64()?;
                    m.batched_deadline_queries = d.u64()?;
                    m.sessions_evicted = d.u64()?;
                    m.shards = d.u64()?;
                    m.partial_frame_resumes = d.u64()?;
                } else if d.remaining() >= 24 {
                    m.alloc_free_ticks = d.u64()?;
                    m.batched_deadline_queries = d.u64()?;
                    m.sessions_evicted = d.u64()?;
                } else if d.remaining() >= 16 {
                    m.alloc_free_ticks = d.u64()?;
                    m.batched_deadline_queries = d.u64()?;
                }
                Frame::MetricsReply(m)
            }
            FRAME_SNAPSHOT_SESSION => Frame::SnapshotSession { session: d.u64()? },
            FRAME_SESSION_SNAPSHOT => Frame::SessionSnapshot {
                session: d.u64()?,
                state: d.session_state()?,
            },
            FRAME_RESTORE_SESSION => {
                let mut spec = SessionSpec {
                    model: d.u8()?,
                    max_window: d.u32()?,
                    min_window: d.u32()?,
                    threshold: d.f64s()?,
                    cache_capacity: d.u32()?,
                    output_rows: 0,
                    output_map: Vec::new(),
                };
                let state = d.session_state()?;
                d.spec_extension(&mut spec)?;
                Frame::RestoreSession { spec, state }
            }
            FRAME_ERROR => Frame::Error {
                code: ErrorCode::from_u8(d.u8()?)?,
                message: d.str()?,
            },
            FRAME_REPLICATE_SNAPSHOT => {
                let key = d.u64()?;
                let generation = d.u64()?;
                let mut spec = SessionSpec {
                    model: d.u8()?,
                    max_window: d.u32()?,
                    min_window: d.u32()?,
                    threshold: d.f64s()?,
                    cache_capacity: d.u32()?,
                    output_rows: 0,
                    output_map: Vec::new(),
                };
                let state = d.session_state()?;
                d.spec_extension(&mut spec)?;
                Frame::ReplicateSnapshot {
                    key,
                    generation,
                    spec,
                    state,
                }
            }
            FRAME_REPLICATE_ACK => Frame::ReplicateAck {
                key: d.u64()?,
                generation: d.u64()?,
            },
            FRAME_PROMOTE_SESSION => Frame::PromoteSession { key: d.u64()? },
            FRAME_RECALIBRATE => {
                let session = d.u64()?;
                let state_dim = d.u32()?;
                let input_dim = d.u32()?;
                let a = d.f64s()?;
                let b = d.f64s()?;
                if state_dim == 0 || input_dim == 0 {
                    return Err(WireError::BadValue("recalibrate dimensions"));
                }
                if a.len() as u64 != u64::from(state_dim) * u64::from(state_dim) {
                    return Err(WireError::BadValue("recalibrate A length"));
                }
                if b.len() as u64 != u64::from(state_dim) * u64::from(input_dim) {
                    return Err(WireError::BadValue("recalibrate B length"));
                }
                Frame::Recalibrate {
                    session,
                    state_dim,
                    input_dim,
                    a,
                    b,
                }
            }
            FRAME_RECALIBRATE_ACK => Frame::RecalibrateAck {
                session: d.u64()?,
                recal_count: d.u64()?,
            },
            FRAME_RING_UPDATE => {
                let epoch = d.u64()?;
                // Smallest member encoding: u32 shard + u32 length
                // prefix of an empty addr = 8 bytes.
                let n = d.seq_len(8)?;
                let mut members = Vec::with_capacity(n);
                for _ in 0..n {
                    members.push(RingMember {
                        shard: d.u32()?,
                        addr: d.str()?,
                    });
                }
                Frame::RingUpdate { epoch, members }
            }
            other => return Err(WireError::UnknownFrameType(other)),
        };
        let corr = if d.remaining() == 8 {
            Some(d.u64()?)
        } else {
            None
        };
        d.finish()?;
        Ok(Envelope { frame, corr })
    }
}

// ---------------------------------------------------------------------------
// Stream I/O

/// Why [`read_frame`] returned without a frame.
#[derive(Debug)]
pub enum ReadFrameError {
    /// The peer closed the connection cleanly (EOF at a frame
    /// boundary).
    Closed,
    /// A transport-level I/O failure (includes read timeouts as
    /// `WouldBlock`/`TimedOut`).
    Io(io::Error),
    /// The bytes violated the protocol — the caller should count this
    /// and drop the connection.
    Wire(WireError),
}

impl std::fmt::Display for ReadFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadFrameError::Closed => write!(f, "connection closed"),
            ReadFrameError::Io(e) => write!(f, "i/o error: {e}"),
            ReadFrameError::Wire(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ReadFrameError {}

/// Writes one length-prefixed frame without a correlation id.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    write_frame_corr(w, frame, None)
}

/// Writes one length-prefixed frame, appending `corr` when present.
///
/// A frame whose collections (or whose total payload) exceed the
/// `u32` wire prefix fails with [`io::ErrorKind::InvalidData`] wrapping
/// the [`WireError::LengthOverflow`] — nothing is written to `w`, so
/// the stream stays framed.
pub fn write_frame_corr<W: Write>(w: &mut W, frame: &Frame, corr: Option<u64>) -> io::Result<()> {
    let payload = frame
        .try_encode_with_corr(corr)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::LengthOverflow {
                what: "frame payload",
                len: payload.len(),
            },
        )
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(&payload)?;
    w.flush()
}

/// Reads one length-prefixed frame, discarding any correlation id —
/// the legacy entry point; correlation-aware callers use
/// [`read_envelope`].
///
/// EOF exactly at a frame boundary is the clean-close signal
/// [`ReadFrameError::Closed`]; EOF mid-frame is
/// [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R, max_len: u32) -> Result<Frame, ReadFrameError> {
    read_envelope(r, max_len).map(|env| env.frame)
}

/// Reads one length-prefixed frame together with its optional
/// correlation id, enforcing `max_len` on the declared payload length
/// *before* allocating.
pub fn read_envelope<R: Read>(r: &mut R, max_len: u32) -> Result<Envelope, ReadFrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    ReadFrameError::Closed
                } else {
                    ReadFrameError::Wire(WireError::Truncated)
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadFrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len > max_len {
        return Err(ReadFrameError::Wire(WireError::FrameTooLarge {
            len,
            max: max_len,
        }));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(ReadFrameError::Wire(WireError::Truncated)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadFrameError::Io(e)),
        }
    }
    Frame::decode_enveloped(&payload).map_err(ReadFrameError::Wire)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session state with every interesting shape: a first entry
    /// without a prediction, a cached `Within` deadline, bit-pattern
    /// float specials.
    fn sample_state() -> WireSessionState {
        WireSessionState {
            prev_window: 5,
            steps_since_estimate: 2,
            initial_radius: 0.25,
            complementary_enabled: true,
            reestimation_period: 3,
            cached_deadline: Some(Some(4)),
            next_step: 2,
            next_seq: 2,
            entries: vec![
                WireLogEntry {
                    step: 0,
                    estimate: vec![0.0, -0.0],
                    input: vec![1.5],
                    prediction: None,
                    residual: vec![0.0, 0.0],
                },
                WireLogEntry {
                    step: 1,
                    estimate: vec![0.1, f64::MIN_POSITIVE],
                    input: vec![-2.5],
                    prediction: Some(vec![0.05, 0.0]),
                    residual: vec![0.05, f64::MIN_POSITIVE],
                },
            ],
            recalibration: None,
        }
    }

    /// [`sample_state`] with a trailing recalibration block, the shape
    /// a session wears after accepting a mid-stream model swap.
    fn sample_recalibrated_state() -> WireSessionState {
        WireSessionState {
            recalibration: Some(WireRecalibration {
                state_dim: 2,
                input_dim: 1,
                a: vec![0.9, 0.1, 0.0, 0.8],
                b: vec![0.5, 1.0],
                count: 3,
            }),
            ..sample_state()
        }
    }

    /// One representative value per frame variant. The match below is
    /// exhaustive on purpose: adding a frame type without extending
    /// this list fails to compile.
    fn sample_frames() -> Vec<Frame> {
        let variants = [
            FRAME_HELLO,
            FRAME_HELLO_ACK,
            FRAME_OPEN_SESSION,
            FRAME_SESSION_OPENED,
            FRAME_TICK,
            FRAME_TICK_OUTCOMES,
            FRAME_CLOSE_SESSION,
            FRAME_SESSION_CLOSED,
            FRAME_METRICS_QUERY,
            FRAME_METRICS_REPLY,
            FRAME_SNAPSHOT_SESSION,
            FRAME_SESSION_SNAPSHOT,
            FRAME_RESTORE_SESSION,
            FRAME_ERROR,
            FRAME_REPLICATE_SNAPSHOT,
            FRAME_REPLICATE_ACK,
            FRAME_PROMOTE_SESSION,
            FRAME_RING_UPDATE,
            FRAME_RECALIBRATE,
            FRAME_RECALIBRATE_ACK,
        ];
        let latency = WireLatency {
            count: 400,
            mean_ns: 1403.25,
            p50_bound_ns: Some(1024),
            p99_bound_ns: None,
            overflow: 3,
        };
        variants
            .iter()
            .map(|&t| match t {
                FRAME_HELLO => Frame::Hello {
                    client: "bench-client/1".into(),
                },
                FRAME_HELLO_ACK => Frame::HelloAck {
                    server: "awsad-serve/0.1".into(),
                },
                FRAME_OPEN_SESSION => Frame::OpenSession(SessionSpec {
                    model: 2,
                    max_window: 100,
                    min_window: 1,
                    threshold: vec![0.07, 0.07, f64::MIN_POSITIVE],
                    cache_capacity: 4096,
                    output_rows: 2,
                    output_map: vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                }),
                FRAME_SESSION_OPENED => Frame::SessionOpened {
                    session: 7,
                    state_dim: 3,
                    input_dim: 1,
                },
                FRAME_TICK => Frame::Tick {
                    session: 7,
                    ticks: vec![
                        WireTick {
                            estimate: vec![0.1, -0.2, 1e-300],
                            input: vec![0.0],
                        },
                        WireTick {
                            estimate: vec![f64::NEG_INFINITY, 0.0, -0.0],
                            input: vec![3.5],
                        },
                    ],
                },
                FRAME_TICK_OUTCOMES => Frame::TickOutcomes {
                    session: 7,
                    outcomes: vec![
                        WireOutcome {
                            seq: 0,
                            degraded: false,
                            step: 12,
                            deadline: Some(40),
                            window: 40,
                            previous_window: 38,
                            current_alarm: false,
                            complementary_alarms: vec![],
                        },
                        WireOutcome {
                            seq: 1,
                            degraded: true,
                            step: 13,
                            deadline: None,
                            window: 100,
                            previous_window: 40,
                            current_alarm: true,
                            complementary_alarms: vec![11, 12],
                        },
                    ],
                },
                FRAME_CLOSE_SESSION => Frame::CloseSession { session: 7 },
                FRAME_SESSION_CLOSED => Frame::SessionClosed { session: 7 },
                FRAME_METRICS_QUERY => Frame::MetricsQuery,
                FRAME_METRICS_REPLY => Frame::MetricsReply(WireMetrics {
                    sessions_active: 3,
                    ticks_submitted: 1000,
                    ticks_processed: 998,
                    alarms_raised: 17,
                    degraded_ticks: 2,
                    queue_depth_high_water: 64,
                    log_latency: latency,
                    detect_latency: WireLatency {
                        p99_bound_ns: Some(1 << 20),
                        ..latency
                    },
                    frames_in: 500,
                    frames_out: 499,
                    decode_errors: 1,
                    connections_opened: 4,
                    connections_dropped: 1,
                    alloc_free_ticks: 950,
                    batched_deadline_queries: 31,
                    sessions_evicted: 2,
                    shards: 4,
                    partial_frame_resumes: 87,
                    sessions_replicated: 996,
                    failovers: 1,
                    replication_lag_hwm: 3,
                    batch_ticks: 4100,
                    batch_sessions_hwm: 16,
                    scalar_fallback_ticks: 9,
                    recalibrations: 5,
                    recalibrations_rejected: 2,
                }),
                FRAME_SNAPSHOT_SESSION => Frame::SnapshotSession { session: 7 },
                FRAME_SESSION_SNAPSHOT => Frame::SessionSnapshot {
                    session: 7,
                    state: sample_state(),
                },
                FRAME_RESTORE_SESSION => Frame::RestoreSession {
                    spec: SessionSpec::model_defaults(3),
                    state: sample_state(),
                },
                FRAME_ERROR => Frame::Error {
                    code: ErrorCode::DimensionMismatch,
                    message: "estimate has 2 entries, model wants 3".into(),
                },
                FRAME_REPLICATE_SNAPSHOT => Frame::ReplicateSnapshot {
                    key: (3u64 << 48) | 7,
                    generation: 12,
                    spec: SessionSpec::model_defaults(3),
                    state: sample_state(),
                },
                FRAME_REPLICATE_ACK => Frame::ReplicateAck {
                    key: (3u64 << 48) | 7,
                    generation: 12,
                },
                FRAME_PROMOTE_SESSION => Frame::PromoteSession {
                    key: (3u64 << 48) | 7,
                },
                FRAME_RING_UPDATE => Frame::RingUpdate {
                    epoch: 5,
                    members: vec![
                        RingMember {
                            shard: 0,
                            addr: "127.0.0.1:9401".into(),
                        },
                        RingMember {
                            shard: 2,
                            addr: String::new(),
                        },
                    ],
                },
                FRAME_RECALIBRATE => Frame::Recalibrate {
                    session: 7,
                    state_dim: 2,
                    input_dim: 1,
                    a: vec![0.95, 0.02, -0.01, 0.9],
                    b: vec![0.5, f64::MIN_POSITIVE],
                },
                FRAME_RECALIBRATE_ACK => Frame::RecalibrateAck {
                    session: 7,
                    recal_count: 2,
                },
                _ => unreachable!("unlisted frame type {t:#04x}"),
            })
            .collect()
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in sample_frames() {
            let payload = frame.encode();
            let back = Frame::decode(&payload)
                .unwrap_or_else(|e| panic!("decode failed for {frame:?}: {e}"));
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn every_frame_round_trips_through_stream_io() {
        for frame in sample_frames() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &frame).unwrap();
            let mut cursor = io::Cursor::new(buf);
            let back = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap();
            assert_eq!(back, frame);
            // And the stream is fully consumed: the next read is a
            // clean close, not garbage.
            assert!(matches!(
                read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN),
                Err(ReadFrameError::Closed)
            ));
        }
    }

    #[test]
    fn truncation_at_every_boundary_errors_without_panic() {
        for frame in sample_frames() {
            let payload = frame.encode();
            // The *legal* short reads: a MetricsReply cut exactly at an
            // append-only counter boundary is a valid older reply.
            // `len - 104` drops all thirteen counters (v1 peer);
            // `len - 88` keeps the first two (two-counter peer);
            // `len - 80` keeps the first three (three-counter peer);
            // `len - 64` keeps the first five (five-counter peer);
            // `len - 40` keeps the first eight (eight-counter peer);
            // `len - 16` keeps the first eleven (eleven-counter peer).
            // Every other counter-dropping cut is NOT legal under
            // strict decode: the leftover 8 bytes parse as a
            // correlation id, which `Frame::decode` rejects as
            // trailing bytes (and a 16-byte leftover is rejected
            // outright).
            let legacy_boundaries: Vec<usize> = match &frame {
                Frame::MetricsReply(_) => vec![
                    payload.len() - 104,
                    payload.len() - 88,
                    payload.len() - 80,
                    payload.len() - 64,
                    payload.len() - 40,
                    payload.len() - 16,
                ],
                // A spec frame cut exactly at the start of the
                // output-map extension is a valid legacy (no-map)
                // frame; any cut *inside* the extension leaves either
                // a short f64 run (Truncated) or ≤ 8 trailing bytes
                // (rejected by strict decode).
                Frame::OpenSession(spec)
                | Frame::RestoreSession { spec, .. }
                | Frame::ReplicateSnapshot { spec, .. }
                    if !spec.output_map.is_empty() =>
                {
                    vec![payload.len() - (8 + 8 * spec.output_map.len())]
                }
                _ => Vec::new(),
            };
            for cut in 0..payload.len() {
                if legacy_boundaries.contains(&cut) {
                    assert!(
                        Frame::decode(&payload[..cut]).is_ok(),
                        "legacy-boundary cut must decode"
                    );
                    continue;
                }
                let err =
                    Frame::decode(&payload[..cut]).expect_err("truncated payload must not decode");
                // Truncation may surface as Truncated (most cuts) but
                // never as a panic or a successful decode.
                let _ = err;
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for frame in sample_frames() {
            let mut payload = frame.encode();
            payload.push(0xee);
            assert_eq!(
                Frame::decode(&payload),
                Err(WireError::TrailingBytes(1)),
                "frame {frame:?}"
            );
        }
    }

    #[test]
    fn correlation_id_round_trips_on_every_frame() {
        for frame in sample_frames() {
            let payload = frame.encode_with_corr(Some(0xdead_beef_cafe_f00d));
            let env = Frame::decode_enveloped(&payload)
                .unwrap_or_else(|e| panic!("enveloped decode failed for {frame:?}: {e}"));
            assert_eq!(env.corr, Some(0xdead_beef_cafe_f00d), "frame {frame:?}");
            assert_eq!(env.frame, frame);
            // A corr-less encoding decodes enveloped with no corr.
            let bare = Frame::decode_enveloped(&frame.encode()).unwrap();
            assert_eq!(bare.corr, None);
            assert_eq!(bare.frame, frame);
        }
    }

    #[test]
    fn strict_decode_rejects_correlation_ids() {
        // The strict decoder must not silently absorb the appended
        // correlation id. (Even on MetricsReply: the thirteen appended
        // counters are consumed first by the `remaining >= 104` rule,
        // which leaves the corr id as the trailing 8 bytes.)
        for frame in sample_frames() {
            assert_eq!(
                Frame::decode(&frame.encode_with_corr(Some(42))),
                Err(WireError::TrailingBytes(8)),
                "frame {frame:?}"
            );
        }
    }

    #[test]
    fn envelope_round_trips_through_stream_io() {
        let frame = Frame::SnapshotSession { session: 9 };
        let mut buf = Vec::new();
        write_frame_corr(&mut buf, &frame, Some(17)).unwrap();
        write_frame(&mut buf, &frame).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let env = read_envelope(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(env.corr, Some(17));
        assert_eq!(env.frame, frame);
        let env = read_envelope(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(env.corr, None);
        assert_eq!(env.frame, frame);
    }

    #[test]
    fn session_state_round_trips_through_runtime_snapshot() {
        let wire = sample_state();
        let snapshot = wire.to_snapshot();
        assert_eq!(snapshot.next_seq, 2);
        assert_eq!(snapshot.state.prev_window, 5);
        assert_eq!(snapshot.state.logger.entries.len(), 2);
        let back = WireSessionState::from_snapshot(&snapshot);
        assert_eq!(back, wire);
    }

    #[test]
    fn recalibrated_session_state_round_trips() {
        // The trailing recalibration block survives the wire (tag 3/4/5
        // scheme) and the runtime-snapshot conversion in both
        // directions, for every cached-deadline shape.
        for deadline in [None, Some(None), Some(Some(4))] {
            let wire = WireSessionState {
                cached_deadline: deadline,
                ..sample_recalibrated_state()
            };
            let frame = Frame::SessionSnapshot {
                session: 9,
                state: wire.clone(),
            };
            let decoded = Frame::decode(&frame.encode()).unwrap();
            assert_eq!(decoded, frame, "deadline {deadline:?}");

            let snapshot = wire.to_snapshot();
            let recal = snapshot.state.recalibration.as_ref().unwrap();
            assert_eq!(recal.a.shape(), (2, 2));
            assert_eq!(recal.b.shape(), (2, 1));
            assert_eq!(recal.count, 3);
            assert_eq!(WireSessionState::from_snapshot(&snapshot), wire);
        }
    }

    #[test]
    fn recalibration_block_truncation_never_decodes() {
        // A tag-3/4/5 state promises a trailing block; any cut that
        // removes part or all of it must error, never decode as a
        // legacy (tag-0/1/2) state.
        let frame = Frame::SessionSnapshot {
            session: 9,
            state: sample_recalibrated_state(),
        };
        let payload = frame.encode();
        // The block is 4 + 4 + (8 + 4*8) + (8 + 2*8) + 8 bytes = 80.
        for cut in payload.len() - 80..payload.len() {
            assert!(
                Frame::decode(&payload[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn never_recalibrated_state_encoding_is_legacy_byte_identical() {
        // Sessions that never recalibrate must emit the exact bytes a
        // pre-recalibration peer emits: tag 0/1/2, no trailing block.
        let state = sample_state();
        let mut e = Enc::new(FRAME_SESSION_SNAPSHOT);
        e.u64(9);
        e.session_state(&state);
        let modern = Frame::SessionSnapshot { session: 9, state }.encode();
        assert_eq!(modern, e.buf);
        // Tag byte sits after the 7-byte header, the session id and
        // the four u64/f64 state fields plus the complementary flag:
        // 7 + 8 + 8 + 8 + 8 + 1 + 8 = 48.
        assert_eq!(modern[48], 2, "Some(Some(_)) deadline must keep tag 2");
    }

    #[test]
    fn legacy_metrics_reply_decodes_with_zeroed_appended_counters() {
        let Frame::MetricsReply(sample) = sample_frames()
            .into_iter()
            .find(|f| matches!(f, Frame::MetricsReply(_)))
            .unwrap()
        else {
            unreachable!()
        };
        assert!(
            sample.alloc_free_ticks > 0
                && sample.batched_deadline_queries > 0
                && sample.sessions_evicted > 0
                && sample.shards > 0
                && sample.partial_frame_resumes > 0
                && sample.sessions_replicated > 0
                && sample.failovers > 0
                && sample.replication_lag_hwm > 0
                && sample.batch_ticks > 0
                && sample.batch_sessions_hwm > 0
                && sample.scalar_fallback_ticks > 0
                && sample.recalibrations > 0
                && sample.recalibrations_rejected > 0
        );
        let payload = Frame::MetricsReply(sample).encode();
        // A v1 peer's reply is byte-identical minus the thirteen
        // appended counters; it must decode with all of them reading
        // zero and every other field intact.
        let legacy = &payload[..payload.len() - 104];
        let Frame::MetricsReply(decoded) = Frame::decode(legacy).unwrap() else {
            panic!("legacy reply must still be a MetricsReply");
        };
        assert_eq!(
            decoded,
            WireMetrics {
                alloc_free_ticks: 0,
                batched_deadline_queries: 0,
                sessions_evicted: 0,
                shards: 0,
                partial_frame_resumes: 0,
                sessions_replicated: 0,
                failovers: 0,
                replication_lag_hwm: 0,
                batch_ticks: 0,
                batch_sessions_hwm: 0,
                scalar_fallback_ticks: 0,
                recalibrations: 0,
                recalibrations_rejected: 0,
                ..sample
            }
        );
        // A two-counter peer keeps the first two appended counters.
        let two_counter = &payload[..payload.len() - 88];
        let Frame::MetricsReply(decoded) = Frame::decode(two_counter).unwrap() else {
            panic!("two-counter reply must still be a MetricsReply");
        };
        assert_eq!(
            decoded,
            WireMetrics {
                sessions_evicted: 0,
                shards: 0,
                partial_frame_resumes: 0,
                sessions_replicated: 0,
                failovers: 0,
                replication_lag_hwm: 0,
                batch_ticks: 0,
                batch_sessions_hwm: 0,
                scalar_fallback_ticks: 0,
                recalibrations: 0,
                recalibrations_rejected: 0,
                ..sample
            }
        );
        // A three-counter peer (the revision that predates sharding)
        // keeps the first three.
        let three_counter = &payload[..payload.len() - 80];
        let Frame::MetricsReply(decoded) = Frame::decode(three_counter).unwrap() else {
            panic!("three-counter reply must still be a MetricsReply");
        };
        assert_eq!(
            decoded,
            WireMetrics {
                shards: 0,
                partial_frame_resumes: 0,
                sessions_replicated: 0,
                failovers: 0,
                replication_lag_hwm: 0,
                batch_ticks: 0,
                batch_sessions_hwm: 0,
                scalar_fallback_ticks: 0,
                recalibrations: 0,
                recalibrations_rejected: 0,
                ..sample
            }
        );
        // A five-counter peer (the revision that predates clustering)
        // drops the replication triple and the batch triple.
        let five_counter = &payload[..payload.len() - 64];
        let Frame::MetricsReply(decoded) = Frame::decode(five_counter).unwrap() else {
            panic!("five-counter reply must still be a MetricsReply");
        };
        assert_eq!(
            decoded,
            WireMetrics {
                sessions_replicated: 0,
                failovers: 0,
                replication_lag_hwm: 0,
                batch_ticks: 0,
                batch_sessions_hwm: 0,
                scalar_fallback_ticks: 0,
                recalibrations: 0,
                recalibrations_rejected: 0,
                ..sample
            }
        );
        // An eight-counter peer (the revision that predates batch
        // stepping) drops the batch triple and the recalibration pair.
        let eight_counter = &payload[..payload.len() - 40];
        let Frame::MetricsReply(decoded) = Frame::decode(eight_counter).unwrap() else {
            panic!("eight-counter reply must still be a MetricsReply");
        };
        assert_eq!(
            decoded,
            WireMetrics {
                batch_ticks: 0,
                batch_sessions_hwm: 0,
                scalar_fallback_ticks: 0,
                recalibrations: 0,
                recalibrations_rejected: 0,
                ..sample
            }
        );
        // An eleven-counter peer (the revision that predates drift
        // recalibration) drops only the recalibration pair.
        let eleven_counter = &payload[..payload.len() - 16];
        let Frame::MetricsReply(decoded) = Frame::decode(eleven_counter).unwrap() else {
            panic!("eleven-counter reply must still be a MetricsReply");
        };
        assert_eq!(
            decoded,
            WireMetrics {
                recalibrations: 0,
                recalibrations_rejected: 0,
                ..sample
            }
        );
        // And a current reply round-trips the counters verbatim.
        let Frame::MetricsReply(full) = Frame::decode(&payload).unwrap() else {
            panic!("full reply must decode");
        };
        assert_eq!(full, sample);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut payload = Frame::MetricsQuery.encode();
        payload[0] = b'X';
        assert_eq!(Frame::decode(&payload), Err(WireError::BadMagic(*b"XWSD")));

        let mut payload = Frame::MetricsQuery.encode();
        payload[4] = 0x7f; // version hi byte
        assert_eq!(
            Frame::decode(&payload),
            Err(WireError::UnsupportedVersion(0x7f01))
        );
    }

    #[test]
    fn unknown_frame_type_is_rejected() {
        let mut payload = Frame::MetricsQuery.encode();
        payload[6] = 0x77;
        assert_eq!(
            Frame::decode(&payload),
            Err(WireError::UnknownFrameType(0x77))
        );
    }

    #[test]
    fn hostile_sequence_length_cannot_overallocate() {
        // A Tick frame declaring u32::MAX ticks with no bytes behind
        // the claim must fail fast as Truncated.
        let mut e = Enc::new(FRAME_TICK);
        e.u64(1); // session
        e.u32(u32::MAX); // tick count
        assert_eq!(Frame::decode(&e.buf), Err(WireError::Truncated));
    }

    #[test]
    fn oversized_length_prefix_is_guarded_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = io::Cursor::new(buf);
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN) {
            Err(ReadFrameError::Wire(WireError::FrameTooLarge { len, max })) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, DEFAULT_MAX_FRAME_LEN);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn eof_mid_frame_is_truncated_not_closed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::MetricsQuery).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN),
            Err(ReadFrameError::Wire(WireError::Truncated))
        ));
    }

    #[test]
    fn float_payloads_are_bit_exact() {
        // Negative zero, subnormals, infinities and NaN all survive
        // the trip with their exact bit patterns.
        let specials = vec![-0.0, f64::MIN_POSITIVE / 2.0, f64::INFINITY, f64::NAN];
        let frame = Frame::Tick {
            session: 1,
            ticks: vec![WireTick {
                estimate: specials.clone(),
                input: vec![],
            }],
        };
        match Frame::decode(&frame.encode()).unwrap() {
            Frame::Tick { ticks, .. } => {
                for (sent, got) in specials.iter().zip(&ticks[0].estimate) {
                    assert_eq!(sent.to_bits(), got.to_bits());
                }
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn wire_outcome_round_trips_adaptive_step() {
        let step = AdaptiveStep {
            step: 42,
            deadline: Deadline::Within(7),
            window: 7,
            previous_window: 40,
            current_alarm: true,
            complementary_alarms: vec![38, 39],
        };
        let outcome = TickOutcome {
            session: awsad_runtime::SessionId(3),
            seq: 41,
            degraded: false,
            step: step.clone(),
        };
        let wire = WireOutcome::from_outcome(&outcome);
        assert_eq!(wire.to_step(), step);
        assert!(wire.alarm());

        let beyond = AdaptiveStep {
            deadline: Deadline::Beyond,
            current_alarm: false,
            complementary_alarms: vec![],
            ..step
        };
        let wire = WireOutcome::from_outcome(&TickOutcome {
            session: awsad_runtime::SessionId(3),
            seq: 42,
            degraded: true,
            step: beyond.clone(),
        });
        assert_eq!(wire.to_step(), beyond);
        assert!(!wire.alarm());
        assert!(wire.degraded);
    }

    /// The length-prefix boundary: `u32::MAX` elements still encode,
    /// one more poisons the encoder with `LengthOverflow` instead of
    /// silently truncating the count (the pre-fix `as u32` behavior
    /// would have written a prefix of 0 for `u32::MAX + 1`).
    #[test]
    fn length_prefix_boundary_is_checked() {
        let mut e = Enc::new(FRAME_HELLO);
        e.len_prefix("at the limit", u32::MAX as usize);
        assert_eq!(e.err, None);
        assert_eq!(&e.buf[7..11], &u32::MAX.to_be_bytes());

        let over = u32::MAX as usize + 1;
        e.len_prefix("first overflow", over);
        assert_eq!(
            e.err,
            Some(WireError::LengthOverflow {
                what: "first overflow",
                len: over,
            })
        );

        // First overflow wins: a later, larger overflow does not
        // repoison the encoder.
        e.len_prefix("second overflow", over + 1);
        assert_eq!(
            e.err,
            Some(WireError::LengthOverflow {
                what: "first overflow",
                len: over,
            })
        );
        let err = e.finish().unwrap_err();
        assert!(err.to_string().contains("first overflow"));
    }

    /// On frames that fit, the fallible encoders are byte-identical
    /// to the panicking ones — callers can migrate freely.
    #[test]
    fn try_encode_matches_encode_on_normal_frames() {
        let frames = [
            Frame::Hello {
                client: "client".into(),
            },
            Frame::Tick {
                session: 7,
                ticks: vec![WireTick {
                    estimate: vec![1.0, -2.0],
                    input: vec![0.5],
                }],
            },
            Frame::RingUpdate {
                epoch: 3,
                members: vec![RingMember {
                    shard: 1,
                    addr: "127.0.0.1:9000".into(),
                }],
            },
        ];
        for frame in &frames {
            assert_eq!(frame.try_encode().unwrap(), frame.encode());
            assert_eq!(
                frame.try_encode_with_corr(Some(99)).unwrap(),
                frame.encode_with_corr(Some(99))
            );
        }
    }

    /// `write_frame_corr` surfaces an encoder length overflow as
    /// `io::ErrorKind::InvalidData` without writing any bytes, so a
    /// stream never carries a corrupt frame.
    #[test]
    fn write_frame_maps_length_overflow_to_invalid_data() {
        // Simulate the poisoned-encoder path directly (materializing
        // a > u32::MAX-element collection is impractical in a test):
        // the error type and the io mapping are what the server's
        // connection loop sees.
        let e = io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::LengthOverflow {
                what: "outcomes",
                len: u32::MAX as usize + 1,
            },
        );
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let inner = e
            .get_ref()
            .and_then(|i| i.downcast_ref::<WireError>())
            .expect("wire error preserved");
        assert!(matches!(inner, WireError::LengthOverflow { what, .. } if *what == "outcomes"));
    }

    /// The output-map spec extension survives every carrying frame,
    /// with and without a correlation id (the id follows the
    /// extension, so this pins the disambiguation rule: remaining > 8
    /// means extension, remaining == 8 means id).
    #[test]
    fn output_map_extension_round_trips_in_all_spec_frames() {
        let spec =
            SessionSpec::model_defaults(3).with_output_map(2, vec![1.0, 0.0, 0.5, 0.0, 1.0, -0.25]);
        let frames = [
            Frame::OpenSession(spec.clone()),
            Frame::RestoreSession {
                spec: spec.clone(),
                state: sample_state(),
            },
            Frame::ReplicateSnapshot {
                key: 42,
                generation: 3,
                spec,
                state: sample_state(),
            },
        ];
        for f in &frames {
            assert_eq!(&Frame::decode(&f.encode()).unwrap(), f);
            let env = Frame::decode_enveloped(&f.encode_with_corr(Some(0xC0FFEE))).unwrap();
            assert_eq!(&env.frame, f);
            assert_eq!(env.corr, Some(0xC0FFEE));
        }
    }

    /// A spec without an output map encodes byte-identically to the
    /// pre-extension wire format (no trailing bytes at all), and such
    /// legacy frames decode to the `C = I` sentinel.
    #[test]
    fn legacy_spec_frames_have_no_extension_bytes() {
        let legacy = Frame::OpenSession(SessionSpec::model_defaults(2));
        let bytes = legacy.encode();
        // Header (4 magic + 2 version + 1 type) + body:
        // u8 model + u32 max + u32 min + (u32 len) + u32 cache.
        assert_eq!(bytes.len(), 7 + 1 + 4 + 4 + 4 + 4);
        let decoded = Frame::decode(&bytes).unwrap();
        let Frame::OpenSession(spec) = decoded else {
            panic!("wrong frame");
        };
        assert_eq!(spec.output_rows, 0);
        assert!(spec.output_map.is_empty());
        // With a correlation id the 8 trailing bytes still route to
        // the envelope, not the extension.
        let env = Frame::decode_enveloped(&legacy.encode_with_corr(Some(9))).unwrap();
        assert_eq!(env.corr, Some(9));
        let Frame::OpenSession(spec) = env.frame else {
            panic!("wrong frame");
        };
        assert!(spec.output_map.is_empty());
    }
}
