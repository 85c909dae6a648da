//! Asynchronous snapshot replication from a shard to its ring
//! successors.
//!
//! A shard's server calls [`awsad_serve::ReplicationSink`] with
//! every snapshot it returns for `SnapshotSession` of a session that
//! has ticked — the cluster router's checkpoints, so replication runs
//! at the router's checkpoint cadence, not once per batch. The call
//! happens *on the serving path*, so the sink must never block.
//! [`Replicator`] therefore only routes and enqueues: it derives the
//! session's cluster-wide replica key, consults its current
//! [`HashRing`] view for the backup member (the first ring member
//! clockwise from the key that is not this shard), and hands the
//! snapshot to a background worker over a bounded channel. The worker
//! owns one wire [`Client`] per backup address and delivers
//! [`Frame::ReplicateSnapshot`] frames in order.
//!
//! Replication is deliberately **best-effort**: a full queue or an
//! unreachable backup drops the snapshot (counted, never blocking),
//! because the cluster client keeps its own checkpoint and tick log
//! and can always restore from them — the replica is a fast path for
//! promotion, not the source of truth. What the engine *does* record
//! is the queue depth at enqueue time ([`ReplicationSink::replicate`]
//! returns it), which surfaces as the `replication_lag_hwm` metric.
//!
//! [`Frame::ReplicateSnapshot`]: awsad_serve::wire::Frame::ReplicateSnapshot

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use awsad_serve::client::{Client, ClientError};
use awsad_serve::wire::{ErrorCode, RingMember, SessionSpec, WireSessionState};
use awsad_serve::{ReplicationSink, ReplicationUpdate};

use crate::ring::{replica_key, HashRing};

/// Jobs queued between the serving path and the delivery worker.
struct Job {
    addr: String,
    key: u64,
    generation: u64,
    spec: SessionSpec,
    state: WireSessionState,
}

/// Counters shared between the replicator handle and its worker.
#[derive(Default)]
struct Counters {
    /// Snapshots currently queued (the replication lag).
    backlog: AtomicU64,
    /// Snapshots acknowledged by a backup (stale rejections count:
    /// the backup holds something at least as new, which is the goal).
    delivered: AtomicU64,
    /// Snapshots dropped — queue full, no backup member, or delivery
    /// failed after a reconnect attempt.
    dropped: AtomicU64,
}

/// The per-shard [`ReplicationSink`]: ring-routed, queue-backed,
/// best-effort snapshot egress. Install one (via `Arc`) as
/// [`awsad_serve::ServerConfig::replication`] on the shard's server.
pub struct Replicator {
    shard: u32,
    ring: Mutex<HashRing>,
    tx: Mutex<Option<SyncSender<Job>>>,
    counters: Arc<Counters>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

/// Bound on queued snapshots before replication starts shedding.
const QUEUE_BOUND: usize = 4096;
/// Reply timeout on the worker's wire clients — a wedged backup must
/// not wedge replication for the whole shard.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

impl Replicator {
    /// Builds the replicator for `shard` with an initial (possibly
    /// empty) ring view and starts its delivery worker.
    pub fn new(shard: u32, ring: HashRing) -> Replicator {
        let counters = Arc::new(Counters::default());
        let (tx, rx) = sync_channel(QUEUE_BOUND);
        let worker_counters = Arc::clone(&counters);
        let worker = std::thread::Builder::new()
            .name(format!("awsad-replicator-{shard}"))
            .spawn(move || deliver(rx, &worker_counters))
            .expect("spawn replication worker");
        Replicator {
            shard,
            ring: Mutex::new(ring),
            tx: Mutex::new(Some(tx)),
            counters,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// This shard's id (the top 16 bits of every replica key it
    /// emits).
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Epoch of the ring view replication currently routes by.
    pub fn ring_epoch(&self) -> u64 {
        self.ring.lock().expect("ring lock").epoch()
    }

    /// Snapshots acknowledged by a backup so far.
    pub fn delivered(&self) -> u64 {
        self.counters.delivered.load(Ordering::Relaxed)
    }

    /// Snapshots shed (queue full, no backup, delivery failure).
    pub fn dropped(&self) -> u64 {
        self.counters.dropped.load(Ordering::Relaxed)
    }

    /// Blocks until the delivery queue is empty or `timeout` passes;
    /// returns whether it drained. Tests use this to make the
    /// asynchronous pipeline observable at a quiescent point.
    pub fn flush(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.counters.backlog.load(Ordering::Acquire) > 0 {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }
}

impl ReplicationSink for Replicator {
    fn replicate(&self, update: ReplicationUpdate) -> u64 {
        let key = replica_key(self.shard, update.session);
        let addr = {
            let ring = self.ring.lock().expect("ring lock");
            match ring.successor_for(key, self.shard) {
                Some(backup) => match ring.addr_of(backup) {
                    Some(addr) => addr.to_string(),
                    None => {
                        self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                        return 0;
                    }
                },
                // A one-member (or empty) ring has nowhere to
                // replicate; not an error, just no redundancy.
                None => return 0,
            }
        };
        let backlog = self.counters.backlog.fetch_add(1, Ordering::AcqRel) + 1;
        let tx = self.tx.lock().expect("sender lock");
        let Some(tx) = tx.as_ref() else {
            self.counters.backlog.fetch_sub(1, Ordering::AcqRel);
            return 0;
        };
        let job = Job {
            addr,
            key,
            generation: update.generation,
            spec: update.spec,
            state: update.state,
        };
        match tx.try_send(job) {
            Ok(()) => backlog,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.counters.backlog.fetch_sub(1, Ordering::AcqRel);
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                backlog - 1
            }
        }
    }

    fn ring_update(&self, epoch: u64, members: &[RingMember]) {
        let mut ring = self.ring.lock().expect("ring lock");
        if epoch > ring.epoch() {
            *ring = HashRing::new(epoch, members.to_vec());
        }
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        // Dropping the sender lets the worker drain what is queued
        // and exit when `recv` disconnects.
        *self.tx.lock().expect("sender lock") = None;
        if let Some(worker) = self.worker.lock().expect("worker lock").take() {
            let _ = worker.join();
        }
    }
}

/// Whether a delivery error means the connection is unusable (retry
/// once on a fresh one) as opposed to a well-framed server verdict.
fn transport_failure(e: &ClientError) -> bool {
    !matches!(e, ClientError::Server { .. })
}

/// The delivery loop: drains jobs, keeping one client per backup
/// address, reconnecting once per job on transport failure.
fn deliver(rx: Receiver<Job>, counters: &Counters) {
    let mut clients: HashMap<String, Client> = HashMap::new();
    while let Ok(job) = rx.recv() {
        let mut delivered = false;
        for _attempt in 0..2 {
            let client = match clients.entry(job.addr.clone()) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    match Client::connect(job.addr.as_str()) {
                        Ok(mut c) => {
                            let _ = c.set_reply_timeout(Some(REPLY_TIMEOUT));
                            v.insert(c)
                        }
                        Err(_) => break,
                    }
                }
            };
            match client.replicate_snapshot(job.key, job.generation, &job.spec, &job.state) {
                Ok(()) => {
                    delivered = true;
                    break;
                }
                // The backup already holds this generation or newer —
                // the redundancy goal is met, count it delivered.
                Err(ClientError::Server {
                    code: ErrorCode::BadSnapshot,
                    ..
                }) => {
                    delivered = true;
                    break;
                }
                Err(e) if transport_failure(&e) => {
                    clients.remove(&job.addr);
                    continue;
                }
                Err(_) => break,
            }
        }
        if delivered {
            counters.delivered.fetch_add(1, Ordering::Relaxed);
        } else {
            counters.dropped.fetch_add(1, Ordering::Relaxed);
        }
        counters.backlog.fetch_sub(1, Ordering::AcqRel);
    }
}
