//! Consistent-hash session sharding for the AWSAD detection service:
//! snapshot replication, failover, and live migration.
//!
//! One server process scales to one machine; monitoring a fleet of
//! plants needs many, and a detection session is *stateful* — its
//! logger window and adaptive-detector state are the detection
//! context, so losing a shard must not mean losing its sessions'
//! progress. This crate adds the coordination layer in four pieces:
//!
//! * [`ring`] — a deterministic consistent-hash ring ([`HashRing`],
//!   [`VNODES`] virtual points per member). Placement is a pure
//!   function of the member set: client routers and shard
//!   replicators independently compute the same primary and backup
//!   for every key, with no coordinator.
//! * [`replicator`] — [`Replicator`], the per-shard
//!   [`awsad_serve::ReplicationSink`]: the server hands it each
//!   snapshot it returns for `SnapshotSession` (the router's
//!   checkpoints), and a background worker ships it to the key's
//!   ring successor as a `ReplicateSnapshot` frame. Strictly
//!   asynchronous and best-effort; the queue depth surfaces as the
//!   engine's `replication_lag_hwm` metric.
//! * [`client`] — [`ClusterClient`], the session router: opens
//!   sessions on their ring primary, logs the ticks it delivers and
//!   checkpoints once that log has grown to the checkpoint's own
//!   size, and on a transport failure (the wire client's poisoned
//!   fail-fast) promotes the backup's replica — or restores its own
//!   checkpoint — replays the log, and delivers the interrupted
//!   batch, so the caller-visible outcome stream is
//!   **byte-identical** to an uninterrupted run. The last member of a
//!   ring has no backup, so its sessions recover in place: the client
//!   reconnects under its [`RetryPolicy`] and restores them there —
//!   a one-member ring is the workspace's reconnecting client.
//!   [`ClusterClient::drain_shard`] live-migrates every session off a
//!   member with zero dropped ticks.
//! * [`shard`] — [`LocalCluster`], an in-process N-shard launcher
//!   (each shard one single-threaded `awsad_net::NetServer`) used by
//!   the tests, the testkit's `cluster` oracle path, and the
//!   `cluster_failover` benchmark.
//!
//! # Quickstart
//!
//! ```
//! use awsad_cluster::LocalCluster;
//! use awsad_serve::server::ServerConfig;
//! use awsad_serve::wire::SessionSpec;
//!
//! // Three shards on loopback, replication wired between them.
//! let mut cluster = LocalCluster::launch(3, ServerConfig::default()).unwrap();
//! let mut client = cluster.client();
//!
//! let session = client.open_session(&SessionSpec::model_defaults(1)).unwrap();
//! client.tick(session.key, &[0.0, 0.0, 0.0], &[0.0]).unwrap();
//!
//! // Kill the session's primary; the next tick transparently fails
//! // over to the replica on the ring successor.
//! let primary = client.primary_of(session.key).unwrap();
//! cluster.kill(primary);
//! let outcome = client.tick(session.key, &[0.0, 0.0, 0.0], &[0.0]).unwrap();
//! assert_eq!(outcome.seq, 1); // no tick lost, no tick repeated
//! assert_eq!(client.failovers(), 1);
//! cluster.shutdown();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod replicator;
pub mod ring;
pub mod shard;

pub use client::{ClusterClient, ClusterError, ClusterSession, Recoveries, RetryPolicy};
pub use replicator::Replicator;
pub use ring::{replica_key, HashRing, VNODES};
pub use shard::{LocalCluster, ShardHandle};
