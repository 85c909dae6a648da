//! Detection-as-a-service for AWSAD: a TCP boundary around the
//! multi-session [`awsad_runtime::DetectionEngine`].
//!
//! PR 1's engine is an in-process library; a production deployment
//! monitors remote plants, which means measurements arrive over a
//! network, hostile bytes are a fact of life, and per-tick cost must
//! stay bounded even under malformed traffic. This crate adds that
//! boundary in three layers:
//!
//! * [`wire`] — a versioned, length-prefixed **binary wire protocol**
//!   (magic + version + frame type). Floats travel as IEEE-754 bit
//!   patterns, so the detection outcomes a client receives are
//!   *byte-identical* to stepping the engine locally. Encoding is
//!   explicit (no serde on the wire path) and decoding of hostile
//!   bytes can only fail with a typed [`wire::WireError`].
//! * [`server`] — a std-only TCP **server**: one reader thread per
//!   connection, each stepping its own requests' ticks on one shared
//!   `DetectionEngine` that has no worker pool (the engine's
//!   Block/Degrade policy applies per request — see
//!   [`server::ServerConfig::engine`]), read timeouts, a
//!   max-frame-size guard enforced *before*
//!   allocation, per-connection error isolation (a malformed frame
//!   kills only that connection and bumps a decode-error counter),
//!   and graceful shutdown via a flag + listener wakeup.
//! * [`client`] — a blocking **client library** with single-tick and
//!   batched-tick APIs, used by `examples/serve_demo.rs` and the
//!   `serve_loopback` throughput bench. Every request carries a
//!   correlation id the server echoes, and a mid-stream failure
//!   poisons the client rather than risking reply misattribution.
//! * [`reconnect`] — [`ReconnectingClient`], which makes detection
//!   sessions survive connection failure: it checkpoints each session
//!   (`SnapshotSession`) after every batch, reconnects with
//!   decorrelated-jitter backoff, restores sessions
//!   (`RestoreSession`) on the fresh connection, and replays the
//!   interrupted batch — the resumed outcome stream is byte-identical
//!   to an uninterrupted run, even across a server restart.
//!
//! The server answers [`wire::Frame::MetricsQuery`] with the engine's
//! [`awsad_runtime::RuntimeMetrics`] plus its own transport counters
//! (frames in/out, decode errors, dropped connections, idle-TTL
//! session evictions).
//!
//! # Quickstart
//!
//! ```
//! use awsad_serve::client::Client;
//! use awsad_serve::server::{Server, ServerConfig};
//! use awsad_serve::wire::SessionSpec;
//!
//! // Ephemeral port on loopback; one engine shared by every client.
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! // Aircraft pitch (Table 1 row 1) on its profiled defaults.
//! let session = client.open_session(&SessionSpec::model_defaults(1)).unwrap();
//! let outcome = client
//!     .tick(session.id, &[0.0, 0.0, 0.0], &[0.0])
//!     .unwrap();
//! assert_eq!(outcome.seq, 0);
//! assert!(!outcome.alarm());
//!
//! client.close_session(session.id).unwrap();
//! server.shutdown();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod reconnect;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, RemoteSession};
pub use reconnect::{ReconnectingClient, RetryPolicy};
pub use server::{ReplicationSink, ReplicationUpdate, Server, ServerConfig, TransportMetrics};
pub use wire::{
    ErrorCode, Frame, RingMember, SessionSpec, WireError, WireLatency, WireMetrics, WireOutcome,
    WireSessionState, WireTick, DEFAULT_MAX_FRAME_LEN, VERSION,
};
