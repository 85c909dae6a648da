//! Blocking client for the AWSAD detection service.
//!
//! [`Client`] wraps one TCP connection and mirrors the server's
//! request/reply discipline: every call writes one frame and blocks
//! for its reply. Batching is the throughput lever — a
//! [`Client::tick_batch`] of `n` ticks costs one round trip instead
//! of `n`, and the server still returns one [`WireOutcome`] per tick
//! in submission order, so the reconstructed `AdaptiveStep` stream is
//! identical to stepping the engine in-process.
//!
//! # Reply correlation and poisoning
//!
//! Every request carries a correlation id that the server echoes on
//! the reply, and the client verifies the echo. This closes a real
//! desync bug: a reply that arrives *after* a
//! [`Client::set_reply_timeout`] expiry used to sit in the socket
//! buffer and be delivered as the answer to the *next* call —
//! silently attributing outcomes to the wrong request. Now any
//! mid-call transport failure (timeout, I/O error, protocol
//! violation, correlation mismatch, wrong reply shape) marks the
//! client **poisoned**: the stream position is unknown, so every
//! subsequent call fails fast with [`ClientError::Poisoned`] instead
//! of reading a stale frame. A poisoned client cannot be revived —
//! reconnect (or use `awsad_cluster::ClusterClient`, which does so
//! automatically and restores sessions from its checkpoints).
//!
//! Typed [`ClientError::Server`] errors do *not* poison: they are
//! well-framed replies on a still-synchronized stream.

use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::wire::{
    read_envelope, write_frame_corr, ErrorCode, Frame, ReadFrameError, RingMember, SessionSpec,
    WireError, WireMetrics, WireOutcome, WireSessionState, WireTick, DEFAULT_MAX_FRAME_LEN,
};

/// Everything that can go wrong on a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write, timeout).
    Io(io::Error),
    /// The server sent bytes violating the protocol.
    Wire(WireError),
    /// The server closed the connection.
    Closed,
    /// The server answered with a typed error frame.
    Server {
        /// Failure category.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered with a well-formed frame of the wrong
    /// type for the request (a server bug or a desynchronized
    /// stream).
    UnexpectedReply {
        /// The frame type the request called for.
        expected: &'static str,
        /// The frame type that actually arrived.
        got: &'static str,
    },
    /// The reply's correlation id does not match the request's — the
    /// stream is delivering answers to some earlier call.
    Desync {
        /// Correlation id this call sent.
        sent: u64,
        /// Correlation id the reply carried.
        got: u64,
    },
    /// A previous call on this client failed mid-stream; the reply
    /// stream position is unknown and the connection must not be
    /// reused.
    Poisoned {
        /// What poisoned the client.
        reason: &'static str,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "protocol error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::UnexpectedReply { expected, got } => {
                write!(f, "unexpected reply frame (expected {expected}, got {got})")
            }
            ClientError::Desync { sent, got } => write!(
                f,
                "reply stream desynchronized (sent correlation id {sent}, reply carries {got})"
            ),
            ClientError::Poisoned { reason } => write!(
                f,
                "client poisoned by an earlier mid-stream failure ({reason}); reconnect required"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ReadFrameError> for ClientError {
    fn from(e: ReadFrameError) -> Self {
        match e {
            ReadFrameError::Closed => ClientError::Closed,
            ReadFrameError::Io(e) => ClientError::Io(e),
            ReadFrameError::Wire(e) => ClientError::Wire(e),
        }
    }
}

/// Client-side result alias.
pub type Result<T> = std::result::Result<T, ClientError>;

/// A session opened on the server, as the client sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteSession {
    /// Server-assigned session id; pass to [`Client::tick`],
    /// [`Client::tick_batch`] and [`Client::close_session`].
    pub id: u64,
    /// The plant's state dimension — every tick's estimate length.
    pub state_dim: usize,
    /// The plant's input dimension — every tick's input length.
    pub input_dim: usize,
}

/// A blocking connection to one detection server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame_len: u32,
    next_corr: u64,
    poisoned: Option<&'static str>,
}

impl Client {
    /// Connects, disables Nagle, and performs the `Hello` handshake.
    ///
    /// # Errors
    ///
    /// Connection failures surface as [`ClientError::Io`]; a
    /// version-incompatible server surfaces as [`ClientError::Wire`]
    /// or [`ClientError::Server`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client {
            reader,
            writer: BufWriter::new(stream),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            next_corr: 1,
            poisoned: None,
        };
        let hello = Frame::Hello {
            client: format!("awsad-serve-client/{}", env!("CARGO_PKG_VERSION")),
        };
        match client.call(&hello)? {
            Frame::HelloAck { .. } => Ok(client),
            other => Err(client.unexpected("HelloAck", &other)),
        }
    }

    /// Sets a read timeout for replies (`None` = block forever).
    ///
    /// A call that times out poisons the client (see the module docs):
    /// the reply may still arrive later, and reading it as the answer
    /// to a subsequent request would misattribute outcomes.
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_reply_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Why this client refuses calls, if a mid-stream failure has
    /// poisoned it; `None` while healthy.
    pub fn poisoned(&self) -> Option<&'static str> {
        self.poisoned
    }

    /// Whether a mid-stream failure has poisoned this client (every
    /// further call will fail with [`ClientError::Poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Opens a detection session described by `spec`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::BadModel`] /
    /// [`ErrorCode::SessionLimit`] / [`ErrorCode::DimensionMismatch`]
    /// on a rejected spec, plus the usual transport failures.
    pub fn open_session(&mut self, spec: &SessionSpec) -> Result<RemoteSession> {
        match self.call(&Frame::OpenSession(spec.clone()))? {
            Frame::SessionOpened {
                session,
                state_dim,
                input_dim,
            } => Ok(RemoteSession {
                id: session,
                state_dim: state_dim as usize,
                input_dim: input_dim as usize,
            }),
            other => Err(self.unexpected("SessionOpened", &other)),
        }
    }

    /// Submits one measurement tick and blocks for its outcome.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] on unknown sessions or dimension
    /// mismatches; transport failures otherwise.
    pub fn tick(&mut self, session: u64, estimate: &[f64], input: &[f64]) -> Result<WireOutcome> {
        let mut outcomes = self.tick_batch(
            session,
            &[WireTick {
                estimate: estimate.to_vec(),
                input: input.to_vec(),
            }],
        )?;
        match outcomes.pop() {
            Some(outcome) => Ok(outcome),
            None => {
                // tick_batch checked the count, so this is
                // unreachable; poison anyway rather than trust a
                // stream that just contradicted itself.
                self.poisoned = Some("empty outcome batch for a one-tick request");
                Err(ClientError::UnexpectedReply {
                    expected: "exactly one outcome",
                    got: "empty TickOutcomes",
                })
            }
        }
    }

    /// Submits a batch of ticks in one round trip and blocks until
    /// the server returns one outcome per tick, in submission order.
    ///
    /// # Errors
    ///
    /// As [`Client::tick`]; additionally
    /// [`ClientError::UnexpectedReply`] if the server returns a
    /// mismatched outcome count or session id (which also poisons the
    /// client — such a reply means the stream cannot be trusted).
    pub fn tick_batch(&mut self, session: u64, ticks: &[WireTick]) -> Result<Vec<WireOutcome>> {
        let n = ticks.len();
        let request = Frame::Tick {
            session,
            ticks: ticks.to_vec(),
        };
        match self.call(&request)? {
            Frame::TickOutcomes {
                session: got_session,
                outcomes,
            } => {
                if got_session != session || outcomes.len() != n {
                    self.poisoned = Some("outcome batch does not match the submitted batch");
                    return Err(ClientError::UnexpectedReply {
                        expected: "outcomes for the submitted batch",
                        got: "TickOutcomes",
                    });
                }
                Ok(outcomes)
            }
            other => Err(self.unexpected("TickOutcomes", &other)),
        }
    }

    /// Fetches a bit-exact snapshot of a session's detector state —
    /// enough to rebuild it with [`Client::restore_session`] on any
    /// connection (including to a restarted server) such that the
    /// resumed outcome stream is byte-identical to an uninterrupted
    /// run.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::UnknownSession`] on
    /// an id this connection does not own; transport failures
    /// otherwise. A pre-snapshot server answers
    /// [`ClientError::Wire`] (unknown frame type) and drops the
    /// connection.
    pub fn snapshot_session(&mut self, session: u64) -> Result<WireSessionState> {
        match self.call(&Frame::SnapshotSession { session })? {
            Frame::SessionSnapshot {
                session: got_session,
                state,
            } => {
                if got_session != session {
                    self.poisoned = Some("snapshot for a different session");
                    return Err(ClientError::UnexpectedReply {
                        expected: "snapshot of the requested session",
                        got: "SessionSnapshot",
                    });
                }
                Ok(state)
            }
            other => Err(self.unexpected("SessionSnapshot", &other)),
        }
    }

    /// Opens a session resumed from `state` (as returned by
    /// [`Client::snapshot_session`]) under `spec` — the spec must be
    /// the one the snapshotted session was opened with. The server
    /// assigns a fresh id.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::BadSnapshot`] when
    /// the state fails validation against the spec; otherwise as
    /// [`Client::open_session`].
    pub fn restore_session(
        &mut self,
        spec: &SessionSpec,
        state: &WireSessionState,
    ) -> Result<RemoteSession> {
        let request = Frame::RestoreSession {
            spec: spec.clone(),
            state: state.clone(),
        };
        match self.call(&request)? {
            Frame::SessionOpened {
                session,
                state_dim,
                input_dim,
            } => Ok(RemoteSession {
                id: session,
                state_dim: state_dim as usize,
                input_dim: input_dim as usize,
            }),
            other => Err(self.unexpected("SessionOpened", &other)),
        }
    }

    /// Swaps a session's plant model mid-stream (accepted model
    /// drift): the server drains the session's queue, rebuilds its
    /// deadline estimator around `(a, b)` (row-major, `n x n` and
    /// `n x m`), and replies with the session's new recalibration
    /// count. Every tick before this call is stepped under the old
    /// model, every tick after it under the new one — nothing is
    /// dropped or stepped twice.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::UnknownSession`] on
    /// a foreign id, or [`ErrorCode::DimensionMismatch`] when the
    /// model does not fit the session (the session is untouched
    /// then); transport failures otherwise. A pre-recalibration
    /// server answers [`ClientError::Wire`] (unknown frame type) and
    /// drops the connection.
    pub fn recalibrate(
        &mut self,
        session: u64,
        state_dim: u32,
        input_dim: u32,
        a: &[f64],
        b: &[f64],
    ) -> Result<u64> {
        let request = Frame::Recalibrate {
            session,
            state_dim,
            input_dim,
            a: a.to_vec(),
            b: b.to_vec(),
        };
        match self.call(&request)? {
            Frame::RecalibrateAck {
                session: got_session,
                recal_count,
            } => {
                if got_session != session {
                    self.poisoned = Some("recalibrate ack for a different session");
                    return Err(ClientError::UnexpectedReply {
                        expected: "ack for the recalibrated session",
                        got: "RecalibrateAck",
                    });
                }
                Ok(recal_count)
            }
            other => Err(self.unexpected("RecalibrateAck", &other)),
        }
    }

    /// Closes a session (idempotent server-side state: closing an
    /// unknown id is a [`ClientError::Server`] with
    /// [`ErrorCode::UnknownSession`]).
    ///
    /// # Errors
    ///
    /// As documented above, plus transport failures.
    pub fn close_session(&mut self, session: u64) -> Result<()> {
        match self.call(&Frame::CloseSession { session })? {
            Frame::SessionClosed { .. } => Ok(()),
            other => Err(self.unexpected("SessionClosed", &other)),
        }
    }

    /// Fetches the server's engine and transport counters and its
    /// latency-stage summaries, each read by name
    /// ([`WireMetrics::counter`], [`WireMetrics::latency`]).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn metrics(&mut self) -> Result<WireMetrics> {
        match self.call(&Frame::MetricsQuery)? {
            Frame::MetricsReply(m) => Ok(m),
            other => Err(self.unexpected("MetricsReply", &other)),
        }
    }

    /// Stores `state` as the backup copy of the session lineage
    /// identified by the cluster-wide replica `key` (cluster
    /// replication egress — see `awsad-cluster`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::BadSnapshot`] when
    /// the receiver already holds `generation` or newer for this key;
    /// transport failures otherwise.
    pub fn replicate_snapshot(
        &mut self,
        key: u64,
        generation: u64,
        spec: &SessionSpec,
        state: &WireSessionState,
    ) -> Result<()> {
        let request = Frame::ReplicateSnapshot {
            key,
            generation,
            spec: spec.clone(),
            state: state.clone(),
        };
        match self.call(&request)? {
            Frame::ReplicateAck {
                key: got_key,
                generation: got_generation,
            } => {
                if got_key != key || got_generation != generation {
                    self.poisoned = Some("replicate ack does not match the submitted snapshot");
                    return Err(ClientError::UnexpectedReply {
                        expected: "ack of the submitted snapshot",
                        got: "ReplicateAck",
                    });
                }
                Ok(())
            }
            other => Err(self.unexpected("ReplicateAck", &other)),
        }
    }

    /// Promotes the replica stored under `key` into a live session on
    /// this connection, returning the fresh session id together with
    /// the state it was restored from (whose `next_seq` tells the
    /// caller how far the replica had caught up).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::UnknownSession`]
    /// when no replica is held under `key` (including after a prior
    /// promote — promotion consumes the replica); transport failures
    /// otherwise.
    pub fn promote_session(&mut self, key: u64) -> Result<(u64, WireSessionState)> {
        match self.call(&Frame::PromoteSession { key })? {
            Frame::SessionSnapshot { session, state } => Ok((session, state)),
            other => Err(self.unexpected("SessionSnapshot", &other)),
        }
    }

    /// Pushes a ring-membership view to the server, returning the
    /// epoch now in force there (which is `epoch` when the update was
    /// accepted, or a newer value when the server already knew
    /// better).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn ring_update(&mut self, epoch: u64, members: &[RingMember]) -> Result<u64> {
        let request = Frame::RingUpdate {
            epoch,
            members: members.to_vec(),
        };
        match self.call(&request)? {
            Frame::ReplicateAck { generation, .. } => Ok(generation),
            other => Err(self.unexpected("ReplicateAck", &other)),
        }
    }

    /// One request/reply round trip. [`Frame::Error`] replies are
    /// lifted into [`ClientError::Server`] here so every typed method
    /// above only matches its success frame.
    ///
    /// This is where the stream-integrity invariants live: a poisoned
    /// client refuses the call outright; a transport failure or a
    /// correlation-id mismatch poisons it. Server error frames pass
    /// through without poisoning — they are well-framed replies on a
    /// healthy stream.
    fn call(&mut self, request: &Frame) -> Result<Frame> {
        if let Some(reason) = self.poisoned {
            return Err(ClientError::Poisoned { reason });
        }
        let corr = self.next_corr;
        self.next_corr += 1;
        if let Err(e) = write_frame_corr(&mut self.writer, request, Some(corr)) {
            self.poisoned = Some("write failed mid-call");
            return Err(e.into());
        }
        let envelope = match read_envelope(&mut self.reader, self.max_frame_len) {
            Ok(envelope) => envelope,
            Err(e) => {
                self.poisoned = Some(match &e {
                    ReadFrameError::Closed => "connection closed mid-call",
                    ReadFrameError::Io(_) => "read failed or timed out mid-call",
                    ReadFrameError::Wire(_) => "malformed reply frame",
                });
                return Err(e.into());
            }
        };
        // The server's reply to a request it could not decode carries
        // no id (it never learned one), so `None` is trusted: it is
        // that error frame. A *wrong* id is proof of desync.
        if let Some(got) = envelope.corr {
            if got != corr {
                self.poisoned = Some("reply correlation id mismatch");
                return Err(ClientError::Desync { sent: corr, got });
            }
        }
        match envelope.frame {
            Frame::Error { code, message } => Err(ClientError::Server { code, message }),
            frame => Ok(frame),
        }
    }

    /// Records an unexpected (but well-framed) reply. The correlation
    /// id matched, yet the frame type is wrong for the request — a
    /// server bug either way, so the stream cannot be trusted.
    fn unexpected(&mut self, expected: &'static str, got: &Frame) -> ClientError {
        self.poisoned = Some("reply frame type did not match the request");
        ClientError::UnexpectedReply {
            expected,
            got: got.type_name(),
        }
    }
}
