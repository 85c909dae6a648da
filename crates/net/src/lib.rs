//! Readiness-based (epoll) detection serving for AWSAD: the same wire
//! protocol as [`awsad_serve`], rehosted on an event loop that scales
//! to tens of thousands of concurrent connections.
//!
//! The blocking server (`awsad_serve::server::Server`) spends one OS
//! thread per connection — perfect clarity, bounded scale. This crate
//! keeps every byte of its protocol behavior (frames, correlation-id
//! echo, error codes and messages, `frame_deadline`, TTL eviction,
//! snapshot/restore) and replaces only the hosting model:
//!
//! * [`sys`] — a std-only readiness abstraction: raw `epoll` on Linux
//!   through thin syscall shims (no `libc` crate — std already links
//!   the symbols), with a portable `poll(2)` fallback, behind one safe
//!   [`sys::Poller`] type. Level-triggered by design.
//! * [`codec`] — incremental frame decode that resumes mid-frame
//!   across wakeups with zero payload copies ([`codec::FrameAssembler`]
//!   reads straight into the pooled final buffer), plus vectored
//!   reply writes ([`codec::WriteQueue`] → `writev(2)`).
//! * [`server`] — [`server::NetServer`]: a small pool of I/O shards,
//!   each owning a listener share, a connection slab, and its **own**
//!   [`awsad_runtime::DetectionEngine`], with sessions pinned to
//!   shards by a stable function of the session id. A shard steps each
//!   `Tick` batch on its own thread in the loop turn that read it. No
//!   cross-shard locks anywhere on the tick path; the one cross-shard
//!   operation is the `MetricsQuery` merge.
//!
//! Every existing client — `awsad_serve::client::Client`,
//! `awsad_serve::reconnect::ReconnectingClient` — works against this
//! server unmodified; the `awsad-testkit` six-path differential
//! oracle holds both servers to byte-identical outcome streams.
//!
//! # Quickstart
//!
//! ```
//! use awsad_net::{NetServer, NetServerConfig};
//! use awsad_serve::client::Client;
//! use awsad_serve::wire::SessionSpec;
//!
//! let server = NetServer::bind("127.0.0.1:0", NetServerConfig::default()).unwrap();
//! // The identical client code drives either server.
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let session = client.open_session(&SessionSpec::model_defaults(1)).unwrap();
//! let outcome = client.tick(session.id, &[0.0, 0.0, 0.0], &[0.0]).unwrap();
//! assert_eq!(outcome.seq, 0);
//! client.close_session(session.id).unwrap();
//! server.shutdown();
//! ```

#![deny(missing_docs)]
// Unsafe is confined to the syscall shims in [`sys`]; every other
// module is `forbid`-clean by construction (the workspace denies it,
// and `sys` opts back in per-module with a documented contract).
#![deny(unsafe_code)]

pub mod codec;
pub mod server;
pub mod sys;

pub use codec::{BufferPool, FrameAssembler, ReadStatus, WriteQueue};
pub use server::{NetServer, NetServerConfig, REQUEST_QUEUE_CAP};
pub use sys::{Event, Interest, Poller, PollerBackend};
