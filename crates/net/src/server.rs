//! The detection server: a small pool of I/O shards, each running one
//! event loop over one [`crate::sys::Poller`]. It is the only server
//! in the workspace; `awsad-cluster` runs one per shard.
//!
//! # Shard model
//!
//! Every shard owns, exclusively and without locks:
//!
//! * a clone of the listening socket (all clones share one file
//!   description, so the kernel load-balances accepts across whichever
//!   shards are awake);
//! * a slab of connection states with incremental frame decode
//!   ([`crate::codec::FrameAssembler`]) and vectored reply writes
//!   ([`crate::codec::WriteQueue`]);
//! * its **own** [`DetectionEngine`], built without a worker pool, so
//!   a session's ticks are stepped on the shard thread itself and never
//!   cross a thread or contend on a cross-shard lock;
//! * a shard-local session registry keyed by wire session id.
//!
//! Sessions are pinned to shards by a stable function of the session
//! id: shard `k` of `n` allocates ids `k, k + n, k + 2n, …`, so
//! `id % n` names the owning shard forever. Since a session is only
//! reachable from the connection that opened it, and a connection
//! lives on exactly one shard, no request can ever need a session
//! another shard owns — the pinning is total, not a cache policy.
//!
//! # Readiness state machine
//!
//! The loop is level-triggered: a handler that stops mid-work (a full
//! request queue, a write that hit `EAGAIN`) is simply re-notified on
//! the next wait. Per readiness event a connection advances through
//! read → decode → enqueue requests → serve → queue replies → flush,
//! all in one loop turn: a `Tick` batch is stepped to completion
//! ([`SessionHandle::step_batch`]) as soon as its frame is served, and
//! its reply is queued right behind it. The wake pipe only nudges the
//! shard at shutdown.
//!
//! Backpressure is the request-queue bound: a connection with
//! [`REQUEST_QUEUE_CAP`] undecoded requests stops being read, which
//! fills the kernel socket buffer, which stalls the sender — TCP
//! doing the throttling.
//!
//! # Protocol
//!
//! Every decoded request frame is answered by exactly one reply frame,
//! in request order, with the request's correlation id echoed (a
//! corr-less request gets a corr-less reply). A malformed or
//! oversized frame is answered with one corr-less `Internal` error
//! frame and closes only its own connection. A frame that does not
//! complete within [`ServerConfig::frame_deadline`] of its first byte
//! drops the connection, so a slow-loris peer holds a connection slot,
//! never a thread, and only for a bounded time. Sessions idle past
//! [`ServerConfig::session_ttl`] are evicted by the same sweep. A
//! session is reachable only from the connection that opened it.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use awsad_linalg::{Matrix, Vector};
use awsad_runtime::{DetectionEngine, LatencyHistogram, RuntimeMetrics, SessionHandle, Tick};
use awsad_serve::server::{
    session_parts_for_spec, ReplicationUpdate, ServerConfig, TransportMetrics,
};
use awsad_serve::wire::{
    ErrorCode, Frame, RingMember, SessionSpec, WireLatency, WireMetrics, WireOutcome,
    WireSessionState, WireTick,
};

use crate::codec::{BufferPool, FrameAssembler, ReadStatus, WriteQueue};
use crate::sys::{Interest, Poller, PollerBackend};

/// Decoded-but-unserved requests a connection may hold before the
/// shard stops reading it (TCP backpressure takes over from there).
pub const REQUEST_QUEUE_CAP: usize = 32;

/// Poller token of the shard's listener clone.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the shard's wake pipe (shutdown nudges).
const TOKEN_WAKE: u64 = 1;
/// Connection tokens start here; the low 32 bits are `slot + 2`, the
/// high 32 bits a generation counter so an event raced against slot
/// reuse can be recognized as stale and dropped.
const TOKEN_CONN_BASE: u64 = 2;

/// Cadence of the maintenance sweep (frame deadline, session TTL) —
/// also the poller wait bound, so sweeps run even on a silent shard.
const SWEEP_INTERVAL: Duration = Duration::from_millis(50);

/// Construction parameters for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Protocol-level configuration: engine shape (applied **per
    /// shard**), frame size limit, per-connection session limit,
    /// server name, session TTL, frame deadline and replication sink.
    /// Each shard steps every `Tick` batch on its own thread, as a
    /// group of that session alone, so of the engine shape only
    /// `queue_capacity`, `backpressure` and `drain_batch` apply;
    /// `workers` and `cross_session_batch` are ignored.
    pub base: ServerConfig,
    /// I/O shard count; `0` (the default) sizes to available
    /// parallelism, clamped to `1..=4`. A shard is one thread and
    /// does all of its own detection work.
    pub shards: usize,
    /// Force the portable `poll(2)` backend even where epoll is
    /// available (diagnostics and differential testing).
    pub force_poll: bool,
    /// Connections one shard will hold; an accept beyond this is
    /// closed immediately (counted in `connections_dropped`).
    pub max_connections_per_shard: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            base: ServerConfig::default(),
            shards: 0,
            force_poll: false,
            max_connections_per_shard: 16 * 1024,
        }
    }
}

impl NetServerConfig {
    /// The shard count `bind` will actually use.
    pub fn resolved_shards(&self) -> usize {
        if self.shards != 0 {
            return self.shards;
        }
        thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .clamp(1, 4)
    }
}

/// Per-shard transport counters; summed across shards for
/// `MetricsQuery` and [`NetServer::transport_metrics`].
#[derive(Debug, Default)]
struct ShardStats {
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    decode_errors: AtomicU64,
    connections_opened: AtomicU64,
    connections_dropped: AtomicU64,
    sessions_evicted: AtomicU64,
    recalibrations_rejected: AtomicU64,
    partial_frame_resumes: AtomicU64,
}

/// The slice of a shard other threads may see: its engine (for
/// cross-shard metrics merges) and its counters.
struct ShardShared {
    engine: DetectionEngine,
    stats: ShardStats,
}

/// One backup copy held for a remote primary's session, keyed by the
/// cluster-wide replica key. Server-wide: any shard's connection may
/// replicate or promote it.
struct ReplicaEntry {
    generation: u64,
    spec: SessionSpec,
    state: WireSessionState,
}

/// State shared by all shards and the [`NetServer`] handle.
struct NetShared {
    config: NetServerConfig,
    shards: Vec<Arc<ShardShared>>,
    shutdown: AtomicBool,
    /// Backup copies this server holds for remote primaries'
    /// sessions, waiting to be promoted on failover.
    replicas: Mutex<HashMap<u64, ReplicaEntry>>,
    /// Highest ring epoch accepted via [`Frame::RingUpdate`].
    ring_epoch: AtomicU64,
}

impl NetShared {
    /// Cross-shard engine metrics: per-shard snapshots folded with
    /// [`RuntimeMetrics::merged`].
    fn merged_engine_metrics(&self) -> RuntimeMetrics {
        self.shards.iter().fold(RuntimeMetrics::zero(), |acc, s| {
            acc.merged(&s.engine.metrics())
        })
    }

    /// Cross-shard transport counters, summed.
    fn summed_transport(&self) -> TransportMetrics {
        let mut t = TransportMetrics::default();
        for s in &self.shards {
            t.frames_in += s.stats.frames_in.load(Ordering::Relaxed);
            t.frames_out += s.stats.frames_out.load(Ordering::Relaxed);
            t.decode_errors += s.stats.decode_errors.load(Ordering::Relaxed);
            t.connections_opened += s.stats.connections_opened.load(Ordering::Relaxed);
            t.connections_dropped += s.stats.connections_dropped.load(Ordering::Relaxed);
            t.sessions_evicted += s.stats.sessions_evicted.load(Ordering::Relaxed);
            t.recalibrations_rejected += s.stats.recalibrations_rejected.load(Ordering::Relaxed);
        }
        t
    }

    /// Total frames completed mid-frame across all shards.
    fn summed_resumes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.stats.partial_frame_resumes.load(Ordering::Relaxed))
            .sum()
    }
}

/// A running detection server. Dropping it (or calling
/// [`NetServer::shutdown`]) wakes every shard and joins them.
pub struct NetServer {
    local_addr: SocketAddr,
    backend: PollerBackend,
    shared: Arc<NetShared>,
    /// One write end per shard wake pipe, for shutdown nudges.
    wakers: Vec<UnixStream>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("backend", &self.backend.name())
            .field("shards", &self.shared.shards.len())
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` (port 0 for ephemeral) and starts the shard pool.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/clone and poller construction failures.
    pub fn bind(addr: impl ToSocketAddrs, config: NetServerConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        crate::sys::listen_max_backlog(&listener)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let nshards = config.resolved_shards();
        let shards: Vec<Arc<ShardShared>> = (0..nshards)
            .map(|_| {
                Arc::new(ShardShared {
                    engine: DetectionEngine::without_pool(config.base.engine.clone()),
                    stats: ShardStats::default(),
                })
            })
            .collect();
        let shared = Arc::new(NetShared {
            config,
            shards,
            shutdown: AtomicBool::new(false),
            replicas: Mutex::new(HashMap::new()),
            ring_epoch: AtomicU64::new(0),
        });

        let mut wakers = Vec::with_capacity(nshards);
        let mut threads = Vec::with_capacity(nshards);
        let mut backend = PollerBackend::Poll;
        for idx in 0..nshards {
            let poller = Poller::new(shared.config.force_poll)?;
            backend = poller.backend();
            let (wake_rx, wake_tx) = UnixStream::pair()?;
            wake_rx.set_nonblocking(true)?;
            wake_tx.set_nonblocking(true)?;
            wakers.push(wake_tx);
            let shard = Shard::new(
                idx,
                nshards,
                Arc::clone(&shared),
                poller,
                listener.try_clone()?,
                wake_rx,
            );
            threads.push(
                thread::Builder::new()
                    .name(format!("awsad-net-shard-{idx}"))
                    .spawn(move || shard.run())
                    .expect("spawn shard thread"),
            );
        }
        Ok(NetServer {
            local_addr,
            backend,
            shared,
            wakers,
            threads: Mutex::new(threads),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The readiness backend the shards are running on.
    pub fn backend(&self) -> PollerBackend {
        self.backend
    }

    /// Number of I/O shards (each with its own engine).
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Cross-shard engine counters, folded with
    /// [`RuntimeMetrics::merged`].
    pub fn engine_metrics(&self) -> RuntimeMetrics {
        self.shared.merged_engine_metrics()
    }

    /// Cross-shard transport counters, summed.
    pub fn transport_metrics(&self) -> TransportMetrics {
        self.shared.summed_transport()
    }

    /// Frames that arrived torn across readiness wakeups and were
    /// completed by mid-frame resume, across all shards.
    pub fn partial_frame_resumes(&self) -> u64 {
        self.shared.summed_resumes()
    }

    /// Stops every shard: connections close, sessions drop, threads
    /// join. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            let _ = (&*w).write(&[1]);
        }
        let threads: Vec<_> = self
            .threads
            .lock()
            .expect("shard thread handles lock")
            .drain(..)
            .collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One open session on a shard. No locks: the owning shard thread is
/// the only toucher.
struct NetSession {
    /// Token of the connection that opened it; any other connection's
    /// lookup answers `UnknownSession`, exactly as if absent.
    owner: u64,
    state_dim: usize,
    input_dim: usize,
    /// Retained for replication egress: the backup rebuilds the
    /// detector stack from this spec at promotion time.
    spec: SessionSpec,
    last_used: Instant,
    handle: SessionHandle,
}

/// Per-connection state in the shard slab.
struct Conn {
    stream: TcpStream,
    token: u64,
    assembler: FrameAssembler,
    /// `assembler.resumed_frames()` already published to the shard
    /// counter (delta accounting).
    resumes_reported: u64,
    writes: WriteQueue,
    requests: VecDeque<awsad_serve::wire::Envelope>,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Peer closed its write side cleanly at a frame boundary; serve
    /// what's queued, flush, then close without counting a drop.
    read_eof: bool,
    /// Fatal protocol error: the error frame is queued; close once it
    /// flushes (or the flush fails).
    poisoned: bool,
    /// This connection's teardown has already been counted in
    /// `connections_dropped`.
    drop_counted: bool,
    /// Sessions currently owned (O(1) session-limit check).
    sessions_open: usize,
}

/// One I/O shard: poller, listener clone, wake pipe, connection slab,
/// session registry, buffer pool — all exclusively owned.
struct Shard {
    nshards: usize,
    shared: Arc<NetShared>,
    shard: Arc<ShardShared>,
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: Vec<Option<Conn>>,
    free_slots: Vec<usize>,
    conns_active: usize,
    sessions: HashMap<u64, NetSession>,
    /// Next wire session id: starts at `idx`, steps by `nshards`, so
    /// `id % nshards == idx` pins the session here for life.
    next_session_id: u64,
    /// Generation stamp for connection tokens.
    next_gen: u64,
    pool: BufferPool,
    /// Scratch: completed payloads from the current read.
    payloads: Vec<Vec<u8>>,
    /// Scratch: events from the current wait.
    events: Vec<crate::sys::Event>,
    last_sweep: Instant,
}

impl Shard {
    fn new(
        idx: usize,
        nshards: usize,
        shared: Arc<NetShared>,
        poller: Poller,
        listener: TcpListener,
        wake_rx: UnixStream,
    ) -> Shard {
        let shard = Arc::clone(&shared.shards[idx]);
        Shard {
            nshards,
            shared,
            shard,
            poller,
            listener,
            wake_rx,
            conns: Vec::new(),
            free_slots: Vec::new(),
            conns_active: 0,
            sessions: HashMap::new(),
            next_session_id: idx as u64,
            next_gen: 0,
            pool: BufferPool::default(),
            payloads: Vec::new(),
            events: Vec::new(),
            last_sweep: Instant::now(),
        }
    }

    fn run(mut self) {
        if self
            .poller
            .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .is_err()
            || self
                .poller
                .register(self.wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)
                .is_err()
        {
            return;
        }
        let mut events = Vec::new();
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            if self.poller.wait(&mut events, SWEEP_INTERVAL).is_err() {
                // EBADF-class failures are unrecoverable for the loop;
                // EINTR already surfaces as an empty wait.
                break;
            }
            std::mem::swap(&mut self.events, &mut events);
            for i in 0..self.events.len() {
                let ev = self.events[i];
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake_pipe(),
                    token => self.conn_event(token),
                }
            }
            self.events.clear();
            std::mem::swap(&mut self.events, &mut events);
            if self.last_sweep.elapsed() >= SWEEP_INTERVAL {
                self.sweep();
                self.last_sweep = Instant::now();
            }
        }
        // Shutdown: deregister and drop everything; each session
        // handle's Drop closes it.
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close_conn(slot, false);
            }
        }
    }

    /// Accepts until `EAGAIN`. All shards share the listener's file
    /// description, so whichever shards wake race for each pending
    /// connection; losers see `EAGAIN` and move on.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns_active >= self.shared.config.max_connections_per_shard {
                        self.shard
                            .stats
                            .connections_dropped
                            .fetch_add(1, Ordering::Relaxed);
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.shard
                        .stats
                        .connections_opened
                        .fetch_add(1, Ordering::Relaxed);
                    self.insert_conn(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient failure (e.g. EMFILE): give up this
                // readiness round; level triggering re-offers it.
                Err(_) => return,
            }
        }
    }

    fn insert_conn(&mut self, stream: TcpStream) {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.next_gen = self.next_gen.wrapping_add(1);
        let token = (slot as u64 + TOKEN_CONN_BASE) | ((self.next_gen & 0xffff_ffff) << 32);
        let fd = stream.as_raw_fd();
        let conn = Conn {
            stream,
            token,
            assembler: FrameAssembler::new(self.shared.config.base.max_frame_len),
            resumes_reported: 0,
            writes: WriteQueue::default(),
            requests: VecDeque::new(),
            interest: Interest::READ,
            read_eof: false,
            poisoned: false,
            drop_counted: false,
            sessions_open: 0,
        };
        if self.poller.register(fd, token, Interest::READ).is_err() {
            // Poller rejected the fd; the stream drops and closes.
            self.shard
                .stats
                .connections_dropped
                .fetch_add(1, Ordering::Relaxed);
            self.free_slots.push(slot);
            return;
        }
        self.conns[slot] = Some(conn);
        self.conns_active += 1;
    }

    /// Maps a poller token to its slab slot, discarding stale events
    /// (a slot reused after close gets a fresh generation).
    fn slot_of(&self, token: u64) -> Option<usize> {
        let slot = (token & 0xffff_ffff).checked_sub(TOKEN_CONN_BASE)? as usize;
        match self.conns.get(slot) {
            Some(Some(c)) if c.token == token => Some(slot),
            _ => None,
        }
    }

    fn conn_event(&mut self, token: u64) {
        let Some(slot) = self.slot_of(token) else {
            return;
        };
        // Readable work first: even a connection the peer already
        // hung up on may hold complete frames worth serving.
        self.read_ready(slot);
        if self.conns[slot].is_some() {
            self.advance(slot);
        }
    }

    /// Reads whatever the socket has, decodes completed frames into
    /// the request queue, and classifies the stop condition.
    fn read_ready(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().expect("live conn");
        if conn.poisoned || conn.read_eof || conn.requests.len() >= REQUEST_QUEUE_CAP {
            return;
        }
        let status =
            conn.assembler
                .read_available(&mut conn.stream, &mut self.pool, &mut self.payloads);
        let resumes = conn.assembler.resumed_frames();
        if resumes != conn.resumes_reported {
            self.shard
                .stats
                .partial_frame_resumes
                .fetch_add(resumes - conn.resumes_reported, Ordering::Relaxed);
            conn.resumes_reported = resumes;
        }
        for payload in self.payloads.drain(..) {
            if !conn.poisoned {
                match Frame::decode_enveloped(&payload) {
                    Ok(env) => {
                        self.shard.stats.frames_in.fetch_add(1, Ordering::Relaxed);
                        conn.requests.push_back(env);
                    }
                    Err(err) => poison(conn, &self.shard.stats, &err),
                }
            }
            self.pool.put(payload);
        }
        match status {
            ReadStatus::WouldBlock => {}
            ReadStatus::Closed => conn.read_eof = true,
            ReadStatus::Protocol(err) => {
                if !conn.poisoned {
                    poison(conn, &self.shard.stats, &err);
                }
            }
            ReadStatus::Io(_) => {
                let count = !self.shared.shutdown.load(Ordering::SeqCst);
                self.close_conn(slot, count);
            }
        }
    }

    /// Serves queued requests, flushes, updates poller interest, and
    /// closes if the connection has nothing left to live for.
    fn advance(&mut self, slot: usize) {
        self.serve_requests(slot);
        if self.conns[slot].is_none() {
            return;
        }
        self.flush(slot);
        if self.conns[slot].is_none() {
            return;
        }
        let conn = self.conns[slot].as_mut().expect("live conn");
        let done_writing = conn.writes.is_empty();
        if conn.poisoned && done_writing {
            // Error frame delivered; teardown was already counted.
            self.close_conn(slot, false);
            return;
        }
        if conn.read_eof && done_writing && conn.requests.is_empty() {
            // Clean close at a frame boundary: not a drop.
            self.close_conn(slot, false);
            return;
        }
        let want = Interest {
            readable: !conn.read_eof && !conn.poisoned && conn.requests.len() < REQUEST_QUEUE_CAP,
            writable: !done_writing,
        };
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            let token = conn.token;
            conn.interest = want;
            if self.poller.reregister(fd, token, want).is_err() {
                self.close_conn(slot, !self.shared.shutdown.load(Ordering::SeqCst));
            }
        }
    }

    /// Serves requests in arrival order until the queue empties, each
    /// reply queued before the next request is looked at (strict
    /// request→reply ordering).
    fn serve_requests(&mut self, slot: usize) {
        loop {
            let conn = self.conns[slot].as_mut().expect("live conn");
            if conn.poisoned {
                return;
            }
            let Some(env) = conn.requests.pop_front() else {
                return;
            };
            let token = conn.token;
            let reply = self.serve_frame(token, env.frame);
            self.queue_reply(slot, &reply, env.corr);
        }
    }

    /// Encodes and queues a reply, counting `frames_out` before the
    /// bytes can possibly hit the wire: a client that has read its
    /// reply observes the counter already bumped. The request's
    /// correlation id is echoed; corr-less requests get corr-less
    /// replies.
    fn queue_reply(&mut self, slot: usize, reply: &Frame, corr: Option<u64>) {
        self.shard.stats.frames_out.fetch_add(1, Ordering::Relaxed);
        let conn = self.conns[slot].as_mut().expect("live conn");
        conn.writes.push_frame(reply.encode_with_corr(corr));
    }

    /// Flushes a connection's write queue; a transport failure tears
    /// the connection down.
    fn flush(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().expect("live conn");
        if conn.writes.is_empty() {
            return;
        }
        if conn.writes.flush(&mut conn.stream).is_err() {
            let count = !conn.drop_counted && !self.shared.shutdown.load(Ordering::SeqCst);
            self.close_conn(slot, count);
        }
    }

    /// Drains the wake pipe (shutdown nudges are just bytes; what
    /// matters is that the loop woke).
    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    /// The maintenance sweep: slow-loris frame deadlines and session
    /// TTL eviction.
    fn sweep(&mut self) {
        let frame_deadline = self.shared.config.base.frame_deadline;
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            if matches!(conn.assembler.mid_frame_since(), Some(since) if since.elapsed() >= frame_deadline)
            {
                self.close_conn(slot, !self.shared.shutdown.load(Ordering::SeqCst));
            }
        }
        if let Some(ttl) = self.shared.config.base.session_ttl {
            let expired: Vec<u64> = self
                .sessions
                .iter()
                .filter(|(_, s)| s.last_used.elapsed() >= ttl)
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                if let Some(sess) = self.sessions.remove(&id) {
                    self.shard
                        .stats
                        .sessions_evicted
                        .fetch_add(1, Ordering::Relaxed);
                    if let Some(slot) = self.slot_of(sess.owner) {
                        let conn = self.conns[slot].as_mut().expect("live conn");
                        conn.sessions_open = conn.sessions_open.saturating_sub(1);
                    }
                }
            }
        }
    }

    /// Tears a connection down: poller deregistration **before** the
    /// fd closes (a closed fd in a poll set is undefined-ish:
    /// POLLNVAL at best), session cleanup, slab slot recycling.
    fn close_conn(&mut self, slot: usize, count_drop: bool) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if count_drop && !conn.drop_counted {
            self.shard
                .stats
                .connections_dropped
                .fetch_add(1, Ordering::Relaxed);
        }
        if conn.sessions_open > 0 {
            // Dropping the entries closes the sessions.
            self.sessions.retain(|_, s| s.owner != conn.token);
        }
        self.conns_active -= 1;
        self.free_slots.push(slot);
    }

    /// Serves one request frame: the server's one frame dispatcher.
    fn serve_frame(&mut self, conn_token: u64, frame: Frame) -> Frame {
        match frame {
            Frame::Hello { client: _ } => Frame::HelloAck {
                server: self.shared.config.base.server_name.clone(),
            },
            Frame::OpenSession(spec) => self.open_session(conn_token, &spec, None),
            // A wire-level restore starts a fresh snapshot lineage
            // (generation 0): the wire state image cannot carry the
            // counter, and only cluster promotion needs it.
            Frame::RestoreSession { spec, state } => {
                self.open_session(conn_token, &spec, Some((&state, 0)))
            }
            Frame::Tick { session, ticks } => self.run_ticks(conn_token, session, ticks),
            Frame::SnapshotSession { session } => self.snapshot_session(conn_token, session),
            Frame::Recalibrate {
                session,
                state_dim,
                input_dim,
                a,
                b,
            } => self.recalibrate_session(conn_token, session, state_dim, input_dim, &a, &b),
            Frame::CloseSession { session } => match self.sessions.get(&session) {
                Some(s) if s.owner == conn_token => {
                    if let Some(sess) = self.sessions.remove(&session) {
                        if let Some(slot) = self.slot_of(conn_token) {
                            let conn = self.conns[slot].as_mut().expect("live conn");
                            conn.sessions_open = conn.sessions_open.saturating_sub(1);
                        }
                        drop(sess);
                    }
                    Frame::SessionClosed { session }
                }
                _ => error(ErrorCode::UnknownSession, format!("session {session}")),
            },
            // The one cross-shard read: every shard's engine snapshot
            // folded, the transport counters summed.
            Frame::MetricsQuery => Frame::MetricsReply(wire_metrics(
                &self.shared.merged_engine_metrics(),
                &self.shared.summed_transport(),
                self.nshards as u64,
                self.shared.summed_resumes(),
            )),
            Frame::ReplicateSnapshot {
                key,
                generation,
                spec,
                state,
            } => self.store_replica(key, generation, spec, state),
            Frame::PromoteSession { key } => self.promote_session(conn_token, key),
            Frame::RingUpdate { epoch, members } => self.ring_update(epoch, &members),
            Frame::HelloAck { .. }
            | Frame::SessionOpened { .. }
            | Frame::TickOutcomes { .. }
            | Frame::SessionClosed { .. }
            | Frame::MetricsReply(_)
            | Frame::SessionSnapshot { .. }
            | Frame::RecalibrateAck { .. }
            | Frame::ReplicateAck { .. }
            | Frame::Error { .. } => error(
                ErrorCode::Internal,
                "reply-direction frame is not a valid request",
            ),
        }
    }

    /// Accepts (or rejects as stale) one replicated snapshot from a
    /// remote primary.
    fn store_replica(
        &mut self,
        key: u64,
        generation: u64,
        spec: SessionSpec,
        state: WireSessionState,
    ) -> Frame {
        let mut replicas = self.shared.replicas.lock().expect("replica store lock");
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
        self.shard.engine.record_replica_stored();
        Frame::ReplicateAck { key, generation }
    }

    /// Turns the stored replica under `key` into a live session on
    /// *this* shard's engine, owned by the requesting connection. The
    /// replica is consumed; the reply echoes the restored state.
    fn promote_session(&mut self, conn_token: u64, key: u64) -> Frame {
        let entry = {
            let mut replicas = self.shared.replicas.lock().expect("replica store lock");
            match replicas.remove(&key) {
                Some(entry) => entry,
                None => return error(ErrorCode::UnknownSession, format!("replica {key}")),
            }
        };
        let reply = self.open_session(
            conn_token,
            &entry.spec,
            Some((&entry.state, entry.generation)),
        );
        let Frame::SessionOpened { session, .. } = reply else {
            // The restore failed; put the replica back so a retry can
            // still promote it.
            self.shared
                .replicas
                .lock()
                .expect("replica store lock")
                .insert(key, entry);
            return reply;
        };
        self.shard.engine.record_failover();
        Frame::SessionSnapshot {
            session,
            state: entry.state,
        }
    }

    /// Accepts a ring-membership update, ignoring stale epochs. The
    /// ack always carries the epoch now in force, so a sender with an
    /// old view can tell it lost.
    fn ring_update(&mut self, epoch: u64, members: &[RingMember]) -> Frame {
        let current = self
            .shared
            .ring_epoch
            .fetch_max(epoch, Ordering::SeqCst)
            .max(epoch);
        if current == epoch {
            if let Some(sink) = &self.shared.config.base.replication {
                sink.ring_update(epoch, members);
            }
        }
        Frame::ReplicateAck {
            key: 0,
            generation: current,
        }
    }

    fn open_session(
        &mut self,
        conn_token: u64,
        spec: &SessionSpec,
        restore: Option<(&WireSessionState, u64)>,
    ) -> Frame {
        let limit = self.shared.config.base.max_sessions_per_connection;
        let Some(slot) = self.slot_of(conn_token) else {
            return error(ErrorCode::Internal, "connection gone");
        };
        if self.conns[slot].as_ref().expect("live conn").sessions_open >= limit {
            return error(
                ErrorCode::SessionLimit,
                format!("connection already holds {limit} sessions"),
            );
        }
        let (logger, detector, state_dim, input_dim) = match session_parts_for_spec(spec) {
            Ok(parts) => parts,
            Err((code, msg)) => return error(code, msg),
        };
        // Outcomes come back from `step_batch`; the session's channel
        // goes unused.
        let (handle, _) = match restore {
            None => self.shard.engine.add_session(logger, detector),
            Some((state, generation)) => {
                let mut snapshot = state.to_snapshot();
                snapshot.generation = generation;
                match self
                    .shard
                    .engine
                    .restore_session(logger, detector, &snapshot)
                {
                    Ok(pair) => pair,
                    Err(e) => return error(ErrorCode::BadSnapshot, format!("restore: {e}")),
                }
            }
        };
        // Wire ids are shard-allocated (engine-internal ids restart
        // at zero per shard and may collide across shards): this id
        // satisfies `id % nshards == shard index` forever.
        let id = self.next_session_id;
        self.next_session_id += self.nshards as u64;
        self.sessions.insert(
            id,
            NetSession {
                owner: conn_token,
                state_dim,
                input_dim,
                spec: spec.clone(),
                last_used: Instant::now(),
                handle,
            },
        );
        self.conns[slot].as_mut().expect("live conn").sessions_open += 1;
        Frame::SessionOpened {
            session: id,
            state_dim: state_dim as u32,
            input_dim: input_dim as u32,
        }
    }

    /// Validates a `Tick` batch and steps it on this thread. Whole-batch
    /// dimension validation happens before anything is stepped (a
    /// half-stepped batch would desynchronize the outcome stream).
    fn run_ticks(&mut self, conn_token: u64, session: u64, ticks: Vec<WireTick>) -> Frame {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return error(ErrorCode::UnknownSession, format!("session {session}"));
        };
        if sess.owner != conn_token {
            // Another connection's session answers exactly like a
            // missing one: ids must not leak across clients.
            return error(ErrorCode::UnknownSession, format!("session {session}"));
        }
        sess.last_used = Instant::now();
        for (i, tick) in ticks.iter().enumerate() {
            if tick.estimate.len() != sess.state_dim || tick.input.len() != sess.input_dim {
                return error(
                    ErrorCode::DimensionMismatch,
                    format!(
                        "tick {i}: got estimate/input dims {}/{}, session wants {}/{}",
                        tick.estimate.len(),
                        tick.input.len(),
                        sess.state_dim,
                        sess.input_dim
                    ),
                );
            }
        }
        tick_reply(session, ticks, &sess.handle)
    }

    fn snapshot_session(&mut self, conn_token: u64, session: u64) -> Frame {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return error(ErrorCode::UnknownSession, format!("session {session}"));
        };
        if sess.owner != conn_token {
            return error(ErrorCode::UnknownSession, format!("session {session}"));
        }
        sess.last_used = Instant::now();
        // Every batch was stepped before its reply, so nothing is in
        // flight and the snapshot never waits.
        let snapshot = sess.handle.snapshot();
        let state = WireSessionState::from_snapshot(&snapshot);
        if let Some(sink) = &self.shared.config.base.replication {
            // Replication egress: the backup receives exactly the
            // state this reply carries, and a never-ticked session
            // (rebuilt from its spec) is not shipped. `Tick` and
            // `Recalibrate` replicate nothing.
            if snapshot.next_seq > 0 {
                let lag = sink.replicate(ReplicationUpdate {
                    session,
                    generation: snapshot.generation,
                    spec: sess.spec.clone(),
                    state: state.clone(),
                });
                self.shard.engine.record_replication_lag(lag);
            }
        }
        Frame::SessionSnapshot { session, state }
    }

    /// Swaps the session's plant model in place (accepted model
    /// drift), a clean cut between two ticks. Nothing is replicated
    /// here: the cluster router checkpoints right after a swap, and
    /// that `SnapshotSession` carries the recalibrated state to the
    /// backup.
    fn recalibrate_session(
        &mut self,
        conn_token: u64,
        session: u64,
        state_dim: u32,
        input_dim: u32,
        a: &[f64],
        b: &[f64],
    ) -> Frame {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return error(ErrorCode::UnknownSession, format!("session {session}"));
        };
        if sess.owner != conn_token {
            return error(ErrorCode::UnknownSession, format!("session {session}"));
        }
        sess.last_used = Instant::now();
        let reject = |stats: &ShardStats, msg: String| {
            stats
                .recalibrations_rejected
                .fetch_add(1, Ordering::Relaxed);
            error(ErrorCode::DimensionMismatch, msg)
        };
        if state_dim as usize != sess.state_dim || input_dim as usize != sess.input_dim {
            return reject(
                &self.shard.stats,
                format!(
                    "recalibrate declares dims {state_dim}/{input_dim}, session wants {}/{}",
                    sess.state_dim, sess.input_dim
                ),
            );
        }
        let n = state_dim as usize;
        let m = input_dim as usize;
        let a = Matrix::from_row_major(n, n, a.to_vec()).expect("A validated on decode");
        let b = Matrix::from_row_major(n, m, b.to_vec()).expect("B validated on decode");
        // Nothing is in flight (see `snapshot_session`), so the
        // engine's quiescence wait returns at once.
        let recal_count = match sess.handle.recalibrate(&a, &b) {
            Ok(count) => count,
            Err(e) => return reject(&self.shard.stats, format!("recalibrate: {e}")),
        };
        Frame::RecalibrateAck {
            session,
            recal_count,
        }
    }
}

/// Marks a connection fatally desynchronized: counts the decode error
/// and the drop, queues the explanatory error frame (best effort —
/// delivery races the peer), and flags the connection for
/// close-after-flush.
fn poison(conn: &mut Conn, stats: &ShardStats, err: &dyn std::fmt::Display) {
    stats.decode_errors.fetch_add(1, Ordering::Relaxed);
    stats.connections_dropped.fetch_add(1, Ordering::Relaxed);
    stats.frames_out.fetch_add(1, Ordering::Relaxed);
    let reply = error(
        ErrorCode::Internal,
        format!("protocol violation, closing connection: {err}"),
    );
    conn.writes.push_frame(reply.encode());
    conn.poisoned = true;
    conn.drop_counted = true;
    conn.requests.clear();
}

fn error(code: ErrorCode, message: impl Into<String>) -> Frame {
    Frame::Error {
        code,
        message: message.into(),
    }
}

/// Steps a validated `Tick` batch on the calling thread and builds its
/// reply. A batch that comes back short (a panic inside the detector
/// failed the session, which the engine contains) answers
/// [`ErrorCode::Timeout`]; a closed session answers
/// [`ErrorCode::UnknownSession`].
fn tick_reply(session: u64, ticks: Vec<WireTick>, handle: &SessionHandle) -> Frame {
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
/// (count/mean/conservative quantile bounds/overflow); quantile bounds
/// honor the histogram's overflow honesty (`None` when no finite bound
/// holds).
fn wire_latency(hist: &LatencyHistogram) -> WireLatency {
    WireLatency {
        count: hist.count,
        mean_ns: hist.mean_ns(),
        p50_bound_ns: hist.quantile_bound_ns(0.5),
        p99_bound_ns: hist.quantile_bound_ns(0.99),
        overflow: hist.overflow,
    }
}

/// Folds a cross-shard engine snapshot, the summed transport counters,
/// the shard count and the mid-frame resume total into the
/// `MetricsReply` image: each counter under its field's name, and the
/// `log` and `detect` stages.
fn wire_metrics(
    engine: &RuntimeMetrics,
    transport: &TransportMetrics,
    shards: u64,
    partial_frame_resumes: u64,
) -> WireMetrics {
    let counters = [
        ("sessions_active", engine.sessions_active),
        ("ticks_submitted", engine.ticks_submitted),
        ("ticks_processed", engine.ticks_processed),
        ("alarms_raised", engine.alarms_raised),
        ("degraded_ticks", engine.degraded_ticks),
        ("queue_depth_high_water", engine.queue_depth_high_water),
        ("alloc_free_ticks", engine.alloc_free_ticks),
        ("batched_deadline_queries", engine.batched_deadline_queries),
        ("sessions_replicated", engine.sessions_replicated),
        ("failovers", engine.failovers),
        ("replication_lag_hwm", engine.replication_lag_hwm),
        ("batch_ticks", engine.batch_ticks),
        ("batch_sessions_hwm", engine.batch_sessions_hwm),
        ("recalibrations", engine.recalibrations),
        ("frames_in", transport.frames_in),
        ("frames_out", transport.frames_out),
        ("decode_errors", transport.decode_errors),
        ("connections_opened", transport.connections_opened),
        ("connections_dropped", transport.connections_dropped),
        ("sessions_evicted", transport.sessions_evicted),
        ("recalibrations_rejected", transport.recalibrations_rejected),
        ("shards", shards),
        ("partial_frame_resumes", partial_frame_resumes),
    ];
    WireMetrics {
        counters: Vec::from(counters.map(|(name, value)| (name.to_owned(), value))),
        latencies: vec![
            ("log".to_owned(), wire_latency(&engine.log_latency)),
            ("detect".to_owned(), wire_latency(&engine.detect_latency)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awsad_runtime::EngineConfig;

    #[test]
    fn the_metrics_reply_names_each_counter_once() {
        let m = wire_metrics(&RuntimeMetrics::zero(), &TransportMetrics::default(), 2, 0);
        let mut names: Vec<&str> = m.counters.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), m.counters.len(), "a counter is listed twice");
        assert_eq!(m.counter("shards"), Some(2));
    }

    #[test]
    fn a_batch_that_comes_back_short_answers_timeout_at_once() {
        // A panic inside the logger or detector fails the session
        // mid-batch (the engine contains it), so the batch comes back
        // short: the reply is the `Timeout` error, given at once, and
        // the next request finds the session closed. The shard rejects
        // wrong-dimension ticks before stepping, so only a direct call
        // can reach the logger's dimension assert used here.
        let spec = SessionSpec::model_defaults(2);
        let (logger, detector, state_dim, input_dim) = session_parts_for_spec(&spec).unwrap();
        let engine = DetectionEngine::without_pool(EngineConfig::default());
        let (handle, _) = engine.add_session(logger, detector);
        let good = WireTick {
            estimate: vec![0.0; state_dim],
            input: vec![0.0; input_dim],
        };
        let bad = WireTick {
            estimate: vec![0.0; state_dim + 1],
            input: vec![0.0; input_dim],
        };
        let batch = vec![good.clone(), good.clone(), bad, good.clone()];
        assert_eq!(
            tick_reply(7, batch, &handle),
            Frame::Error {
                code: ErrorCode::Timeout,
                message: "engine produced 2/4 outcomes in time".into(),
            }
        );
        assert_eq!(
            tick_reply(7, vec![good], &handle),
            Frame::Error {
                code: ErrorCode::UnknownSession,
                message: "session closed under batch".into(),
            }
        );
    }
}
