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
//! * [`server`] — what every server shares: [`ServerConfig`], the
//!   [`TransportMetrics`] counters, the [`ReplicationSink`] egress hook
//!   and [`server::session_parts_for_spec`], the spec → detector-stack
//!   construction. The server itself is `awsad_net::NetServer`, an
//!   epoll event loop whose shards step each request's ticks on the
//!   thread that read it.
//! * [`client`] — a blocking **client library** with single-tick and
//!   batched-tick APIs, used by `examples/serve_demo.rs`, the
//!   `serve_loopback` throughput bench and the cluster router. Every
//!   request carries a correlation id the server echoes, and a
//!   mid-stream failure poisons the client rather than risking reply
//!   misattribution. Sessions that survive connection failure are
//!   the cluster router's job: `awsad_cluster::ClusterClient`
//!   checkpoints (`SnapshotSession`), reconnects and restores
//!   (`RestoreSession`), even over a one-member ring.
//!
//! A server answers [`wire::Frame::MetricsQuery`] with the engine's
//! [`awsad_runtime::RuntimeMetrics`] plus its own transport counters
//! (frames in/out, decode errors, dropped connections, idle-TTL
//! session evictions).
//!
//! # Quickstart
//!
//! ```no_run
//! use awsad_serve::client::Client;
//! use awsad_serve::wire::SessionSpec;
//!
//! // A running detection server (`awsad_net::NetServer`).
//! let mut client = Client::connect("127.0.0.1:4048").unwrap();
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
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, RemoteSession};
pub use server::{ReplicationSink, ReplicationUpdate, ServerConfig, TransportMetrics};
pub use wire::{
    ErrorCode, Frame, RingMember, SessionSpec, WireError, WireLatency, WireMetrics, WireOutcome,
    WireSessionState, WireTick, DEFAULT_MAX_FRAME_LEN, VERSION,
};
