//! The AWSAD detection server: a TCP front-end over one shared
//! [`DetectionEngine`].
//!
//! Threading model: one accept thread plus **one reader thread per
//! connection**. Sessions live in a server-wide registry keyed by
//! session id, but every entry records the connection that opened it
//! and lookups check that owner — so one client can never address
//! another's session, exactly as when the map was connection-local.
//! Each connection speaks a strict request/reply discipline: every
//! decoded frame is answered by exactly one reply frame, and a
//! request's correlation id (when present) is echoed on its reply.
//! The engine has no worker pool: a connection thread steps each
//! `Tick` batch itself ([`SessionHandle::step_batch`]) before it reads
//! the next frame, so cross-connection concurrency comes from the
//! connection threads, not from interleaving on a socket.
//!
//! Session lifetime: a connection's sessions are closed when the
//! connection ends (any cause). A client that wants its detector
//! state to survive transport failure snapshots it
//! ([`Frame::SnapshotSession`]) and restores it on a fresh connection
//! ([`Frame::RestoreSession`]) — the engine rebuilds the session
//! bit-exactly, so the resumed outcome stream is byte-identical to an
//! uninterrupted run. `crate::ReconnectingClient` automates this.
//! Orthogonally, [`ServerConfig::session_ttl`] lets the server evict
//! sessions a *live* connection has left idle; the accept thread
//! sweeps for them between accepts.
//!
//! Hostile-input posture, per the serving-layer design:
//!
//! * the declared frame length is checked against
//!   [`ServerConfig::max_frame_len`] *before* any allocation;
//! * a malformed frame (bad magic/version/type, truncation, trailing
//!   bytes) increments the `decode_errors` transport counter and
//!   tears down **only that connection** — its sessions close, queued
//!   ticks still drain, and every other session keeps ticking;
//! * sockets carry a read timeout so connection threads observe the
//!   shutdown flag within [`ServerConfig::read_timeout`] even while a
//!   peer is idle or trickling bytes mid-frame, and a frame that does
//!   not complete within [`ServerConfig::frame_deadline`] of its
//!   first byte drops the connection — a slow-loris peer ties up only
//!   its own connection, and only for a bounded time;
//! * overload maps onto the engine's own backpressure: under
//!   [`BackpressurePolicy::Block`](awsad_runtime::BackpressurePolicy)
//!   a flooding client is throttled by its own unanswered batch, and
//!   under `Degrade` the ticks of one batch past the engine's
//!   `queue_capacity` take the flagged cheap path — either way other
//!   sessions' latency is protected.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use awsad_core::{AdaptiveDetector, DataLogger, DetectorConfig};
use awsad_linalg::{Matrix, Vector};
use awsad_models::Simulator;
use awsad_reach::{CacheConfig, DeadlineCache};
use awsad_runtime::{
    DetectionEngine, EngineConfig, LatencyHistogram, RuntimeMetrics, SessionHandle, Tick,
};

use crate::wire::{
    read_envelope, write_frame, write_frame_corr, ErrorCode, Frame, ReadFrameError, RingMember,
    SessionSpec, WireLatency, WireMetrics, WireOutcome, WireSessionState, WireTick,
    DEFAULT_MAX_FRAME_LEN,
};

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

/// Server construction parameters.
#[derive(Clone)]
pub struct ServerConfig {
    /// Configuration of the server's detection engine. The engine has
    /// no worker pool — the thread that reads a `Tick` request steps
    /// it ([`SessionHandle::step_batch`]) — so only `queue_capacity`,
    /// `backpressure` and `drain_batch` apply: under `Degrade` the
    /// ticks of one batch past `queue_capacity` take the degraded
    /// step, and `drain_batch` sizes the deadline-cache prewarm
    /// chunks. `workers` and `cross_session_batch` are ignored.
    pub engine: EngineConfig,
    /// Maximum accepted frame payload length; larger declarations are
    /// rejected before allocation and drop the connection.
    pub max_frame_len: u32,
    /// Socket read timeout — the cadence at which idle connection
    /// threads re-check the shutdown flag.
    pub read_timeout: Duration,
    /// Maximum sessions one connection may hold open.
    pub max_sessions_per_connection: usize,
    /// Name returned in the `HelloAck` handshake.
    pub server_name: String,
    /// Evict sessions that have not served a request for this long
    /// (`None` — the default — never evicts). Eviction closes the
    /// session exactly as `CloseSession` would; the owning client's
    /// next use gets [`ErrorCode::UnknownSession`]. The sweep runs on
    /// the accept thread between accepts, so expect eviction within
    /// roughly a sweep interval (~10 ms) past the deadline.
    pub session_ttl: Option<Duration>,
    /// Maximum wall-clock time a single frame may take from its first
    /// byte to its last. A peer that stalls mid-frame past this
    /// deadline is disconnected (counted in `connections_dropped`),
    /// bounding how long a slow-loris writer can hold a connection
    /// thread.
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
            .field("read_timeout", &self.read_timeout)
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
            read_timeout: Duration::from_millis(100),
            max_sessions_per_connection: 64,
            server_name: format!("awsad-serve/{}", env!("CARGO_PKG_VERSION")),
            session_ttl: None,
            frame_deadline: Duration::from_secs(30),
            replication: None,
        }
    }
}

/// Atomic transport counters (the serving-layer analogue of
/// [`RuntimeMetrics`]).
#[derive(Debug, Default)]
struct TransportInner {
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    decode_errors: AtomicU64,
    connections_opened: AtomicU64,
    connections_dropped: AtomicU64,
    sessions_evicted: AtomicU64,
    recalibrations_rejected: AtomicU64,
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
    /// swaps count in [`RuntimeMetrics::recalibrations`] instead.
    pub recalibrations_rejected: u64,
}

impl TransportInner {
    fn snapshot(&self) -> TransportMetrics {
        TransportMetrics {
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            connections_dropped: self.connections_dropped.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            recalibrations_rejected: self.recalibrations_rejected.load(Ordering::Relaxed),
        }
    }
}

/// One open session in the server-wide registry.
struct ServeSession {
    /// Connection that opened it; lookups from any other connection
    /// answer `UnknownSession`.
    owner: u64,
    state_dim: usize,
    input_dim: usize,
    /// Retained for replication egress: the backup rebuilds the
    /// detector stack from this spec at promotion time.
    spec: SessionSpec,
    last_used: Mutex<Instant>,
    /// Locked for the duration of each request touching the session;
    /// the TTL sweep `try_lock`s it so an in-flight request is never
    /// evicted under itself.
    handle: Mutex<SessionHandle>,
}

/// One backup copy held for a remote primary's session, keyed by the
/// cluster-wide replica key.
struct ReplicaEntry {
    generation: u64,
    spec: SessionSpec,
    state: WireSessionState,
}

struct ServerShared {
    config: ServerConfig,
    engine: DetectionEngine,
    transport: TransportInner,
    shutdown: AtomicBool,
    next_conn_id: AtomicU64,
    /// Server-wide session registry; entries carry their owning
    /// connection id. Dropping an entry closes its session (the
    /// handle's `Drop` does the close).
    sessions: Mutex<HashMap<u64, Arc<ServeSession>>>,
    /// Backup copies this server holds for remote primaries'
    /// sessions, waiting to be promoted on failover.
    replicas: Mutex<HashMap<u64, ReplicaEntry>>,
    /// Highest ring epoch accepted via [`Frame::RingUpdate`]; older
    /// epochs are ignored (and acked with this value).
    ring_epoch: AtomicU64,
    /// Joined on shutdown; finished threads are reaped opportunistically
    /// by the accept loop so a long-lived server does not accumulate
    /// handles for long-gone connections.
    connections: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// A running detection server. Dropping it (or calling
/// [`Server::shutdown`]) stops the accept loop, wakes every
/// connection thread, and joins them all.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Mutex<Option<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accepts let the same thread run the idle-session
        // sweep between connection attempts.
        listener.set_nonblocking(true)?;
        let shared = Arc::new(ServerShared {
            engine: DetectionEngine::without_pool(config.engine.clone()),
            config,
            transport: TransportInner::default(),
            shutdown: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(1),
            sessions: Mutex::new(HashMap::new()),
            replicas: Mutex::new(HashMap::new()),
            ring_epoch: AtomicU64::new(0),
            connections: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("awsad-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        Ok(Server {
            local_addr,
            shared,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The address the server is listening on (with the actual port
    /// when bound ephemerally).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the shared engine's counters.
    pub fn engine_metrics(&self) -> RuntimeMetrics {
        self.shared.engine.metrics()
    }

    /// A point-in-time copy of the transport counters.
    pub fn transport_metrics(&self) -> TransportMetrics {
        self.shared.transport.snapshot()
    }

    /// Stops accepting, wakes every connection thread, and joins them
    /// all. Sessions close. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread polls the shutdown flag between
        // non-blocking accept attempts; a throwaway connection is not
        // needed but hurries it along on a loaded box.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.lock().expect("accept lock").take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = self
            .shared
            .connections
            .lock()
            .expect("connections lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // The listener's non-blocking flag is inherited by
                // accepted sockets on some platforms; connection
                // threads want plain blocking reads with a timeout.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                shared
                    .transport
                    .connections_opened
                    .fetch_add(1, Ordering::Relaxed);
                let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                let handle = thread::Builder::new()
                    .name("awsad-serve-conn".into())
                    .spawn(move || handle_connection(stream, conn_shared, conn_id))
                    .expect("spawn connection thread");
                let mut conns = shared.connections.lock().expect("connections lock");
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                sweep_idle_sessions(&shared);
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE); back off
                // briefly instead of spinning.
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Closes registry sessions idle past [`ServerConfig::session_ttl`].
/// A session whose `handle` lock is held is mid-request — by
/// definition not idle — and is skipped via `try_lock`.
fn sweep_idle_sessions(shared: &ServerShared) {
    let Some(ttl) = shared.config.session_ttl else {
        return;
    };
    let now = Instant::now();
    let mut registry = shared.sessions.lock().expect("session registry lock");
    registry.retain(|_, session| {
        let Ok(_handle) = session.handle.try_lock() else {
            return true;
        };
        // Re-check idleness under the handle lock: a request that
        // finished between our `now` and this try_lock has already
        // refreshed `last_used`.
        let last = *session.last_used.lock().expect("last_used lock");
        if now.saturating_duration_since(last) < ttl {
            return true;
        }
        shared
            .transport
            .sessions_evicted
            .fetch_add(1, Ordering::Relaxed);
        false
    });
}

/// Wraps the connection socket so blocking reads wake up every
/// [`ServerConfig::read_timeout`] to observe the shutdown flag — even
/// mid-frame, so a byte-trickling peer cannot pin a thread across
/// shutdown. Reads never return `WouldBlock` to the framing layer;
/// they either deliver bytes, report a real error, or fail with
/// [`io::ErrorKind::Other`] once shutdown is requested.
///
/// The reader also enforces [`ServerConfig::frame_deadline`]: a timer
/// arms on the first byte read after [`Self::frame_done`] (i.e. the
/// first byte of a frame) and a read past the deadline fails with
/// [`io::ErrorKind::TimedOut`], so a slow-loris peer holds its
/// connection thread for at most one deadline.
struct ShutdownAwareReader<'a> {
    stream: BufReader<TcpStream>,
    shutdown: &'a AtomicBool,
    frame_deadline: Duration,
    mid_frame_since: Option<Instant>,
}

impl ShutdownAwareReader<'_> {
    /// Marks the current frame complete, disarming the mid-frame
    /// stall deadline until the next byte arrives.
    fn frame_done(&mut self) {
        self.mid_frame_since = None;
    }
}

impl Read for ShutdownAwareReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return Err(io::Error::other("server shutting down"));
            }
            if let Some(since) = self.mid_frame_since {
                if since.elapsed() >= self.frame_deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "frame not completed within the frame deadline",
                    ));
                }
            }
            match self.stream.read(buf) {
                Ok(n) => {
                    if n > 0 && self.mid_frame_since.is_none() {
                        self.mid_frame_since = Some(Instant::now());
                    }
                    return Ok(n);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                other => return other,
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: Arc<ServerShared>, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            shared
                .transport
                .connections_dropped
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let mut reader = ShutdownAwareReader {
        stream: BufReader::new(stream),
        shutdown: &shared.shutdown,
        frame_deadline: shared.config.frame_deadline,
        mid_frame_since: None,
    };
    let mut writer = BufWriter::new(write_stream);

    loop {
        let envelope = match read_envelope(&mut reader, shared.config.max_frame_len) {
            Ok(envelope) => envelope,
            Err(ReadFrameError::Closed) => break, // clean client close
            Err(ReadFrameError::Io(_)) => {
                // Shutdown, transport failure, or a mid-frame stall
                // past the frame deadline; either way this connection
                // is done.
                if !shared.shutdown.load(Ordering::SeqCst) {
                    shared
                        .transport
                        .connections_dropped
                        .fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
            Err(ReadFrameError::Wire(err)) => {
                // Malformed traffic: count it, tell the peer why
                // (best effort — the stream may be desynchronized),
                // and kill only this connection.
                shared
                    .transport
                    .decode_errors
                    .fetch_add(1, Ordering::Relaxed);
                shared
                    .transport
                    .connections_dropped
                    .fetch_add(1, Ordering::Relaxed);
                let reply = Frame::Error {
                    code: ErrorCode::Internal,
                    message: format!("protocol violation, closing connection: {err}"),
                };
                shared.transport.frames_out.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(&mut writer, &reply);
                break;
            }
        };
        reader.frame_done();
        shared.transport.frames_in.fetch_add(1, Ordering::Relaxed);

        let reply = handle_frame(&shared, conn_id, envelope.frame);
        // Count before the bytes hit the wire: a client that has read
        // its reply must observe the counter already bumped, which
        // keeps `frames_out` exact from any observer's point of view
        // (the write-failure path below tears the connection down, so
        // the one-frame overcount there is visible as a drop).
        shared.transport.frames_out.fetch_add(1, Ordering::Relaxed);
        // Echo the request's correlation id (legacy corr-less request
        // → legacy corr-less reply, byte-identical to older servers).
        if write_frame_corr(&mut writer, &reply, envelope.corr).is_err() {
            shared
                .transport
                .connections_dropped
                .fetch_add(1, Ordering::Relaxed);
            break;
        }
    }
    // Close this connection's sessions: drop them from the registry
    // (the handle's `Drop` closes each).
    shared
        .sessions
        .lock()
        .expect("session registry lock")
        .retain(|_, s| s.owner != conn_id);
}

fn error(code: ErrorCode, message: impl Into<String>) -> Frame {
    Frame::Error {
        code,
        message: message.into(),
    }
}

/// Looks up `session` in the registry, enforcing connection
/// ownership, and refreshes its idle clock.
#[allow(clippy::result_large_err)] // Err is the ready-to-send reply frame; rare path
fn lookup_session(
    shared: &ServerShared,
    conn_id: u64,
    session: u64,
) -> Result<Arc<ServeSession>, Frame> {
    let registry = shared.sessions.lock().expect("session registry lock");
    match registry.get(&session) {
        Some(s) if s.owner == conn_id => {
            *s.last_used.lock().expect("last_used lock") = Instant::now();
            Ok(Arc::clone(s))
        }
        // An existing session owned by another connection is reported
        // exactly like a missing one: ids must not leak across
        // clients.
        _ => Err(error(
            ErrorCode::UnknownSession,
            format!("session {session}"),
        )),
    }
}

fn handle_frame(shared: &ServerShared, conn_id: u64, frame: Frame) -> Frame {
    match frame {
        Frame::Hello { client: _ } => Frame::HelloAck {
            server: shared.config.server_name.clone(),
        },
        Frame::OpenSession(spec) => open_session(shared, conn_id, &spec, None),
        // A wire-level restore starts a fresh snapshot lineage
        // (generation 0): the wire state image cannot carry the
        // counter, and only cluster promotion needs it.
        Frame::RestoreSession { spec, state } => {
            open_session(shared, conn_id, &spec, Some((&state, 0)))
        }
        Frame::Tick { session, ticks } => run_ticks(shared, conn_id, session, ticks),
        Frame::SnapshotSession { session } => snapshot_session(shared, conn_id, session),
        Frame::CloseSession { session } => {
            let mut registry = shared.sessions.lock().expect("session registry lock");
            match registry.get(&session) {
                Some(s) if s.owner == conn_id => {
                    registry.remove(&session);
                    Frame::SessionClosed { session }
                }
                _ => error(ErrorCode::UnknownSession, format!("session {session}")),
            }
        }
        Frame::MetricsQuery => Frame::MetricsReply(wire_metrics(
            &shared.engine.metrics(),
            &shared.transport.snapshot(),
        )),
        Frame::ReplicateSnapshot {
            key,
            generation,
            spec,
            state,
        } => store_replica(shared, key, generation, spec, state),
        Frame::PromoteSession { key } => promote_session(shared, conn_id, key),
        Frame::RingUpdate { epoch, members } => ring_update(shared, epoch, &members),
        Frame::Recalibrate {
            session,
            state_dim,
            input_dim,
            a,
            b,
        } => recalibrate_session(shared, conn_id, session, state_dim, input_dim, &a, &b),
        // Reply-direction frames arriving from a client are requests
        // we cannot serve; answer with a typed error but keep the
        // connection (the stream itself is still well-formed).
        Frame::HelloAck { .. }
        | Frame::SessionOpened { .. }
        | Frame::TickOutcomes { .. }
        | Frame::SessionClosed { .. }
        | Frame::MetricsReply(_)
        | Frame::SessionSnapshot { .. }
        | Frame::ReplicateAck { .. }
        | Frame::RecalibrateAck { .. }
        | Frame::Error { .. } => error(
            ErrorCode::Internal,
            "reply-direction frame is not a valid request",
        ),
    }
}

/// Accepts (or rejects as stale) one replicated snapshot from a
/// remote primary.
fn store_replica(
    shared: &ServerShared,
    key: u64,
    generation: u64,
    spec: SessionSpec,
    state: WireSessionState,
) -> Frame {
    let mut replicas = shared.replicas.lock().expect("replica store lock");
    if let Some(existing) = replicas.get(&key) {
        if existing.generation >= generation {
            return error(
                ErrorCode::BadSnapshot,
                format!(
                    "stale replica generation {generation} for key {key} (holding {})",
                    existing.generation
                ),
            );
        }
    }
    replicas.insert(
        key,
        ReplicaEntry {
            generation,
            spec,
            state,
        },
    );
    shared.engine.record_replica_stored();
    Frame::ReplicateAck { key, generation }
}

/// Turns the stored replica under `key` into a live session owned by
/// the requesting connection. The replica is consumed; the reply
/// echoes the restored state so the promoting router can judge the
/// replica's freshness against its own checkpoint.
fn promote_session(shared: &ServerShared, conn_id: u64, key: u64) -> Frame {
    let entry = {
        let mut replicas = shared.replicas.lock().expect("replica store lock");
        match replicas.remove(&key) {
            Some(entry) => entry,
            None => return error(ErrorCode::UnknownSession, format!("replica {key}")),
        }
    };
    let reply = open_session(
        shared,
        conn_id,
        &entry.spec,
        Some((&entry.state, entry.generation)),
    );
    let Frame::SessionOpened { session, .. } = reply else {
        // The restore failed; put the replica back so a retry (or a
        // different router) can still promote it.
        shared
            .replicas
            .lock()
            .expect("replica store lock")
            .insert(key, entry);
        return reply;
    };
    shared.engine.record_failover();
    Frame::SessionSnapshot {
        session,
        state: entry.state,
    }
}

/// Accepts a ring-membership update, ignoring stale epochs. The ack
/// always carries the epoch now in force, so a sender with an old
/// view can tell it lost.
fn ring_update(shared: &ServerShared, epoch: u64, members: &[RingMember]) -> Frame {
    let current = shared
        .ring_epoch
        .fetch_max(epoch, Ordering::SeqCst)
        .max(epoch);
    if current == epoch {
        if let Some(sink) = &shared.config.replication {
            sink.ring_update(epoch, members);
        }
    }
    Frame::ReplicateAck {
        key: 0,
        generation: current,
    }
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

/// Wraps [`session_parts_for_spec`] for the reply path. `Err` carries
/// the ready-to-send error frame.
#[allow(clippy::result_large_err)] // Err is the ready-to-send reply frame; rare path
fn build_session_parts(
    spec: &SessionSpec,
) -> Result<(DataLogger, AdaptiveDetector, usize, usize), Frame> {
    session_parts_for_spec(spec).map_err(|(code, msg)| error(code, msg))
}

/// Opens a fresh session, or — when `restore` carries a snapshot and
/// the generation to seed its lineage counter with — rebuilds one
/// mid-stream. Both paths answer `SessionOpened`.
fn open_session(
    shared: &ServerShared,
    conn_id: u64,
    spec: &SessionSpec,
    restore: Option<(&WireSessionState, u64)>,
) -> Frame {
    {
        let registry = shared.sessions.lock().expect("session registry lock");
        if registry.values().filter(|s| s.owner == conn_id).count()
            >= shared.config.max_sessions_per_connection
        {
            return error(
                ErrorCode::SessionLimit,
                format!(
                    "connection already holds {} sessions",
                    shared.config.max_sessions_per_connection
                ),
            );
        }
    }
    let (logger, detector, state_dim, input_dim) = match build_session_parts(spec) {
        Ok(parts) => parts,
        Err(reply) => return reply,
    };
    // Outcomes come back from `step_batch`; the session's channel goes
    // unused.
    let (handle, _) = match restore {
        None => shared.engine.add_session(logger, detector),
        Some((state, generation)) => {
            let mut snapshot = state.to_snapshot();
            snapshot.generation = generation;
            match shared.engine.restore_session(logger, detector, &snapshot) {
                Ok(pair) => pair,
                Err(e) => return error(ErrorCode::BadSnapshot, format!("restore: {e}")),
            }
        }
    };
    let id = handle.id().0;
    shared
        .sessions
        .lock()
        .expect("session registry lock")
        .insert(
            id,
            Arc::new(ServeSession {
                owner: conn_id,
                state_dim,
                input_dim,
                spec: spec.clone(),
                last_used: Mutex::new(Instant::now()),
                handle: Mutex::new(handle),
            }),
        );
    Frame::SessionOpened {
        session: id,
        state_dim: state_dim as u32,
        input_dim: input_dim as u32,
    }
}

fn snapshot_session(shared: &ServerShared, conn_id: u64, session: u64) -> Frame {
    let serve_session = match lookup_session(shared, conn_id, session) {
        Ok(s) => s,
        Err(reply) => return reply,
    };
    let handle = serve_session.handle.lock().expect("session handle lock");
    // Every batch was stepped before its reply, so nothing is in
    // flight and the snapshot never waits.
    let snapshot = handle.snapshot();
    let state = WireSessionState::from_snapshot(&snapshot);
    if let Some(sink) = &shared.config.replication {
        // Replication egress: the backup receives the very state the
        // client keeps as its checkpoint. A session that never ticked
        // is rebuilt from its spec, so it is not shipped.
        if snapshot.next_seq > 0 {
            let lag = sink.replicate(ReplicationUpdate {
                session,
                generation: snapshot.generation,
                spec: serve_session.spec.clone(),
                state: state.clone(),
            });
            shared.engine.record_replication_lag(lag);
        }
    }
    Frame::SessionSnapshot { session, state }
}

/// Swaps a live session's plant model mid-stream (accepted model
/// drift), a clean cut between two ticks. Nothing is replicated
/// here: the cluster router checkpoints right after a swap, and that
/// `SnapshotSession` carries the recalibrated state to the backup.
fn recalibrate_session(
    shared: &ServerShared,
    conn_id: u64,
    session: u64,
    state_dim: u32,
    input_dim: u32,
    a: &[f64],
    b: &[f64],
) -> Frame {
    let serve_session = match lookup_session(shared, conn_id, session) {
        Ok(s) => s,
        Err(reply) => return reply,
    };
    let reject = |msg: String| {
        shared
            .transport
            .recalibrations_rejected
            .fetch_add(1, Ordering::Relaxed);
        error(ErrorCode::DimensionMismatch, msg)
    };
    if state_dim as usize != serve_session.state_dim
        || input_dim as usize != serve_session.input_dim
    {
        return reject(format!(
            "recalibrate declares dims {state_dim}/{input_dim}, session wants {}/{}",
            serve_session.state_dim, serve_session.input_dim
        ));
    }
    // The wire decoder already validated the element counts against
    // the declared dims, so these constructions cannot fail.
    let n = state_dim as usize;
    let m = input_dim as usize;
    let a = Matrix::from_row_major(n, n, a.to_vec()).expect("A validated on decode");
    let b = Matrix::from_row_major(n, m, b.to_vec()).expect("B validated on decode");
    let handle = serve_session.handle.lock().expect("session handle lock");
    let recal_count = match handle.recalibrate(&a, &b) {
        Ok(count) => count,
        Err(e) => return reject(format!("recalibrate: {e}")),
    };
    Frame::RecalibrateAck {
        session,
        recal_count,
    }
}

fn run_ticks(shared: &ServerShared, conn_id: u64, session: u64, ticks: Vec<WireTick>) -> Frame {
    let serve_session = match lookup_session(shared, conn_id, session) {
        Ok(s) => s,
        Err(reply) => return reply,
    };
    // Validate the whole batch before stepping anything: the logger
    // asserts on dimension mismatches, and a half-stepped batch would
    // desynchronize the outcome stream.
    for (i, tick) in ticks.iter().enumerate() {
        if tick.estimate.len() != serve_session.state_dim
            || tick.input.len() != serve_session.input_dim
        {
            return error(
                ErrorCode::DimensionMismatch,
                format!(
                    "tick {i}: got estimate/input dims {}/{}, session wants {}/{}",
                    tick.estimate.len(),
                    tick.input.len(),
                    serve_session.state_dim,
                    serve_session.input_dim
                ),
            );
        }
    }
    let handle = serve_session.handle.lock().expect("session handle lock");
    tick_reply(session, ticks, &handle)
}

/// Steps a validated `Tick` batch on the calling thread and builds its
/// reply — the one tick path of both servers (`awsad-net` calls it
/// too), so their replies agree by construction. A batch that comes
/// back short (a panic inside the detector failed the session, which
/// the engine contains) answers [`ErrorCode::Timeout`]; a closed
/// session answers [`ErrorCode::UnknownSession`].
pub fn tick_reply(session: u64, ticks: Vec<WireTick>, handle: &SessionHandle) -> Frame {
    let n = ticks.len();
    let ticks = ticks.into_iter().map(|tick| Tick {
        estimate: Vector::from_vec(tick.estimate),
        input: Vector::from_vec(tick.input),
    });
    match handle.step_batch(ticks) {
        Ok(outcomes) if outcomes.len() == n => Frame::TickOutcomes {
            session,
            outcomes: outcomes.iter().map(WireOutcome::from_outcome).collect(),
        },
        Ok(outcomes) => error(
            ErrorCode::Timeout,
            format!("engine produced {}/{n} outcomes in time", outcomes.len()),
        ),
        Err(_) => error(ErrorCode::UnknownSession, "session closed under batch"),
    }
}

/// Collapses one [`LatencyHistogram`] into its wire summary
/// (count/mean/conservative quantile bounds/overflow). Shared by the
/// blocking server and `awsad-net`; quantile bounds honor the
/// histogram's overflow honesty (`None` when no finite bound holds).
pub fn wire_latency(hist: &LatencyHistogram) -> WireLatency {
    WireLatency {
        count: hist.count,
        mean_ns: hist.mean_ns(),
        p50_bound_ns: hist.quantile_bound_ns(0.5),
        p99_bound_ns: hist.quantile_bound_ns(0.99),
        overflow: hist.overflow,
    }
}

/// Folds an engine snapshot plus transport counters into the
/// `MetricsReply` image. The single construction path for metrics
/// replies: the blocking server uses it directly, and `awsad-net`
/// feeds it a cross-shard [`RuntimeMetrics::merged`] snapshot plus
/// summed transport counters, then fills the shard-specific appended
/// fields (`shards`, `partial_frame_resumes`) — which stay zero here,
/// marking an unsharded reply.
pub fn wire_metrics(engine: &RuntimeMetrics, transport: &TransportMetrics) -> WireMetrics {
    WireMetrics {
        sessions_active: engine.sessions_active,
        ticks_submitted: engine.ticks_submitted,
        ticks_processed: engine.ticks_processed,
        alarms_raised: engine.alarms_raised,
        degraded_ticks: engine.degraded_ticks,
        queue_depth_high_water: engine.queue_depth_high_water,
        log_latency: wire_latency(&engine.log_latency),
        detect_latency: wire_latency(&engine.detect_latency),
        frames_in: transport.frames_in,
        frames_out: transport.frames_out,
        decode_errors: transport.decode_errors,
        connections_opened: transport.connections_opened,
        connections_dropped: transport.connections_dropped,
        alloc_free_ticks: engine.alloc_free_ticks,
        batched_deadline_queries: engine.batched_deadline_queries,
        sessions_evicted: transport.sessions_evicted,
        shards: 0,
        partial_frame_resumes: 0,
        sessions_replicated: engine.sessions_replicated,
        failovers: engine.failovers,
        replication_lag_hwm: engine.replication_lag_hwm,
        batch_ticks: engine.batch_ticks,
        batch_sessions_hwm: engine.batch_sessions_hwm,
        scalar_fallback_ticks: engine.scalar_fallback_ticks,
        recalibrations: engine.recalibrations,
        recalibrations_rejected: transport.recalibrations_rejected,
    }
}
