//! What every detection server shares: its configuration
//! ([`ServerConfig`]), its transport counters ([`TransportMetrics`]),
//! the replication egress hook ([`ReplicationSink`]), and the spec →
//! detector-stack construction ([`session_parts_for_spec`]).
//!
//! The server itself is `awsad_net::NetServer`, an event loop that
//! steps each `Tick` batch on the shard thread that read it. This
//! module holds the pieces other crates name without the event loop:
//! the cluster launcher configures shards through [`ServerConfig`],
//! its replicator implements [`ReplicationSink`], and differential
//! harnesses build the bit-identical local reference for a spec with
//! [`session_parts_for_spec`].

use std::sync::Arc;
use std::time::Duration;

use awsad_core::{AdaptiveDetector, DataLogger, DetectorConfig};
use awsad_linalg::Vector;
use awsad_models::Simulator;
use awsad_reach::{CacheConfig, DeadlineCache};
use awsad_runtime::EngineConfig;

use crate::wire::{ErrorCode, RingMember, SessionSpec, WireSessionState, DEFAULT_MAX_FRAME_LEN};

/// One session snapshot headed for a backup peer: the server hands
/// its [`ReplicationSink`] the snapshot it just returned for
/// `SnapshotSession`, when the session has ticked.
#[derive(Debug, Clone)]
pub struct ReplicationUpdate {
    /// The live session id on the primary.
    pub session: u64,
    /// Snapshot generation (strictly increasing per session lineage);
    /// the backup rejects anything not newer than what it holds.
    pub generation: u64,
    /// The spec the session was opened with — the backup needs it to
    /// rebuild the detector stack at promotion time.
    pub spec: SessionSpec,
    /// The session state, exactly as the `SessionSnapshot` reply
    /// carries it.
    pub state: WireSessionState,
}

/// Where a replication-enabled server sends the snapshots it returns.
///
/// The egress point is `SnapshotSession`: the state a client takes as
/// its checkpoint is the state the backup receives, so a replica is
/// always a cut the client knows. Sessions that have not ticked
/// (`next_seq` 0) are not replicated — their spec rebuilds them.
/// `Tick` and `Recalibrate` replicate nothing.
///
/// Implementations (see `awsad-cluster`) typically enqueue the update
/// for a background sender so the hot reply path never waits on the
/// backup's socket — replication is asynchronous by design, and the
/// cluster router compensates for the resulting lag at promotion time
/// by comparing the promoted replica's progress against its own
/// checkpoint and tick log.
pub trait ReplicationSink: Send + Sync {
    /// Accepts one update. Returns the sink's current backlog —
    /// updates accepted but not yet acknowledged by the backup,
    /// including this one — which the server records as the
    /// replication-lag high-water mark.
    fn replicate(&self, update: ReplicationUpdate) -> u64;
    /// The server accepted ring epoch `epoch` with membership
    /// `members`; the sink re-derives its backup target from it.
    fn ring_update(&self, epoch: u64, members: &[RingMember]);
}

/// Protocol-level server parameters (the event-loop shape — shard
/// count, poller backend — lives in `awsad_net::NetServerConfig`).
#[derive(Clone)]
pub struct ServerConfig {
    /// Configuration of each shard's detection engine. The engine has
    /// no worker pool — the thread that reads a `Tick` request steps
    /// it ([`awsad_runtime::SessionHandle::step_batch`]) — so only
    /// `queue_capacity`, `backpressure` and `drain_batch` apply: under
    /// `Degrade` the ticks of one batch past `queue_capacity` take the
    /// degraded step, and `drain_batch` sizes the deadline-cache
    /// prewarm chunks. `workers` and `cross_session_batch` are
    /// ignored.
    pub engine: EngineConfig,
    /// Maximum accepted frame payload length; larger declarations are
    /// rejected before allocation and drop the connection.
    pub max_frame_len: u32,
    /// Maximum sessions one connection may hold open.
    pub max_sessions_per_connection: usize,
    /// Name returned in the `HelloAck` handshake.
    pub server_name: String,
    /// Evict sessions that have not served a request for this long
    /// (`None` — the default — never evicts). Eviction closes the
    /// session exactly as `CloseSession` would; the owning client's
    /// next use gets [`ErrorCode::UnknownSession`]. Each shard sweeps
    /// between poller waits, so expect eviction within roughly a sweep
    /// interval (~50 ms) past the deadline.
    pub session_ttl: Option<Duration>,
    /// Maximum wall-clock time a single frame may take from its first
    /// byte to its last. A peer that stalls mid-frame past this
    /// deadline is disconnected (counted in `connections_dropped`),
    /// bounding how long a slow-loris writer can hold a connection.
    pub frame_deadline: Duration,
    /// When set, every `SnapshotSession` reply of a session that has
    /// ticked is also handed to this sink for asynchronous replication
    /// to a backup peer (`None` — the default — replicates nothing).
    pub replication: Option<Arc<dyn ReplicationSink>>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("engine", &self.engine)
            .field("max_frame_len", &self.max_frame_len)
            .field(
                "max_sessions_per_connection",
                &self.max_sessions_per_connection,
            )
            .field("server_name", &self.server_name)
            .field("session_ttl", &self.session_ttl)
            .field("frame_deadline", &self.frame_deadline)
            .field("replication", &self.replication.as_ref().map(|_| ".."))
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            engine: EngineConfig::default(),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_sessions_per_connection: 64,
            server_name: format!("awsad-serve/{}", env!("CARGO_PKG_VERSION")),
            session_ttl: None,
            frame_deadline: Duration::from_secs(30),
            replication: None,
        }
    }
}

/// A point-in-time copy of the server's transport counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportMetrics {
    /// Frames successfully decoded across all connections.
    pub frames_in: u64,
    /// Reply frames written across all connections.
    pub frames_out: u64,
    /// Malformed or oversized frames observed (each one also drops
    /// its connection).
    pub decode_errors: u64,
    /// Connections accepted over the server's lifetime.
    pub connections_opened: u64,
    /// Connections torn down for cause — decode error or transport
    /// I/O failure (clean client closes do not count).
    pub connections_dropped: u64,
    /// Sessions closed by the idle-TTL sweep
    /// ([`ServerConfig::session_ttl`]).
    pub sessions_evicted: u64,
    /// `Recalibrate` requests refused without touching their session
    /// (wrong dimensions or a model the detector rejected). Accepted
    /// swaps count in [`awsad_runtime::RuntimeMetrics::recalibrations`]
    /// instead.
    pub recalibrations_rejected: u64,
}

/// Builds the detector stack a spec describes — **exactly** the
/// construction `OpenSession`/`RestoreSession` perform, exposed so
/// differential harnesses (`awsad-testkit`) can assemble the
/// bit-identical local reference for a spec instead of hand-copying
/// the server's defaulting rules.
///
/// Returns `(logger, detector, state_dim, input_dim)`.
///
/// # Errors
///
/// The error code the server would reply with, plus a human-readable
/// detail.
pub fn session_parts_for_spec(
    spec: &SessionSpec,
) -> Result<(DataLogger, AdaptiveDetector, usize, usize), (ErrorCode, String)> {
    let Some(sim) = Simulator::all()
        .into_iter()
        .find(|s| s.table1_row() == spec.model as usize)
    else {
        return Err((
            ErrorCode::BadModel,
            format!("no Table 1 row {} (valid: 1..=5)", spec.model),
        ));
    };
    let model = sim.build();
    let w_m = if spec.max_window == 0 {
        model.default_max_window
    } else {
        spec.max_window as usize
    };
    let threshold = if spec.threshold.is_empty() {
        model.threshold.clone()
    } else {
        Vector::from_slice(&spec.threshold)
    };
    if threshold.len() != model.state_dim() {
        return Err((
            ErrorCode::DimensionMismatch,
            format!(
                "threshold has {} entries, {} wants {}",
                threshold.len(),
                model.name,
                model.state_dim()
            ),
        ));
    }
    // The output map is scenario metadata: ticks are state estimates
    // regardless of how many physical sensors produced them, so the
    // map never changes the detector stack — but a malformed one is a
    // client bug worth rejecting before it replicates across the
    // cluster.
    if !spec.output_map.is_empty() {
        let rows = spec.output_rows as usize;
        if rows == 0 || spec.output_map.len() != rows * model.state_dim() {
            return Err((
                ErrorCode::DimensionMismatch,
                format!(
                    "output map has {} entries, not {} rows x {} states",
                    spec.output_map.len(),
                    rows,
                    model.state_dim()
                ),
            ));
        }
        if spec.output_map.iter().any(|v| !v.is_finite()) {
            return Err((
                ErrorCode::DimensionMismatch,
                "output map entries must be finite".into(),
            ));
        }
    } else if spec.output_rows != 0 {
        return Err((
            ErrorCode::DimensionMismatch,
            format!(
                "output map declares {} rows but carries no entries",
                spec.output_rows
            ),
        ));
    }
    let det_cfg = DetectorConfig::with_min_window(threshold, spec.min_window as usize, w_m)
        .map_err(|e| (ErrorCode::Internal, format!("detector config: {e}")))?;
    let estimator = model
        .deadline_estimator(w_m)
        .map_err(|e| (ErrorCode::Internal, format!("deadline estimator: {e}")))?;
    let mut detector = AdaptiveDetector::new(det_cfg, estimator)
        .map_err(|e| (ErrorCode::Internal, format!("detector: {e}")))?;
    if spec.cache_capacity > 0 {
        detector.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(
            spec.cache_capacity as usize,
        )));
    }
    let logger = model.data_logger(w_m);
    Ok((
        logger,
        detector,
        model.state_dim(),
        model.system.input_dim(),
    ))
}
