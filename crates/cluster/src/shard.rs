//! In-process cluster launcher: N shard servers wired for
//! replication, used by the tests, the differential oracle's seventh
//! path, and the failover benchmark.

use std::io;
use std::sync::Arc;

use awsad_runtime::RuntimeMetrics;
use awsad_serve::server::{Server, ServerConfig};
use awsad_serve::wire::RingMember;
use awsad_serve::ReplicationSink;

use crate::client::ClusterClient;
use crate::replicator::Replicator;
use crate::ring::HashRing;

/// One launched shard: its ring identity, its blocking server, and
/// the replication sink installed on it.
pub struct ShardHandle {
    /// Ring identity (shard id + bound address).
    pub member: RingMember,
    /// The shard's server.
    pub server: Server,
    /// The shard's replication egress.
    pub replicator: Arc<Replicator>,
}

/// An N-shard cluster on loopback: each shard is an
/// [`awsad_serve::server::Server`] on an ephemeral port with a
/// [`Replicator`] installed, and every replicator is seeded with the
/// same epoch-1 ring so snapshot routing works from the first batch.
pub struct LocalCluster {
    shards: Vec<Option<ShardHandle>>,
    ring: HashRing,
}

impl LocalCluster {
    /// Launches `n` shards, each configured from `base` (its
    /// `replication` field is replaced with the shard's own sink).
    ///
    /// # Errors
    ///
    /// Bind failures.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero or exceeds the 16-bit shard-id space.
    pub fn launch(n: usize, base: ServerConfig) -> io::Result<LocalCluster> {
        LocalCluster::launch_with_sinks(n, base, |replicator| {
            Arc::clone(replicator) as Arc<dyn ReplicationSink>
        })
    }

    /// Launches `n` shards like [`LocalCluster::launch`], but installs
    /// on each server the sink `sink` builds around the shard's
    /// [`Replicator`] — a wrapper that filters or records updates
    /// before (or instead of) forwarding them. The handle's
    /// `replicator` stays the inner one.
    ///
    /// # Errors
    ///
    /// Bind failures.
    ///
    /// # Panics
    ///
    /// As [`LocalCluster::launch`].
    pub fn launch_with_sinks(
        n: usize,
        base: ServerConfig,
        sink: impl Fn(&Arc<Replicator>) -> Arc<dyn ReplicationSink>,
    ) -> io::Result<LocalCluster> {
        assert!(n >= 1, "a cluster needs at least one shard");
        assert!(n < (1 << 16), "shard ids are confined to 16 bits");
        let mut shards = Vec::with_capacity(n);
        for shard in 0..n as u32 {
            // The ring is not known until every shard has bound, so
            // each replicator starts on an empty epoch-0 view and is
            // seeded below.
            let replicator = Arc::new(Replicator::new(shard, HashRing::new(0, Vec::new())));
            let config = ServerConfig {
                replication: Some(sink(&replicator)),
                ..base.clone()
            };
            let server = Server::bind("127.0.0.1:0", config)?;
            let member = RingMember {
                shard,
                addr: server.local_addr().to_string(),
            };
            shards.push(Some(ShardHandle {
                member,
                server,
                replicator,
            }));
        }
        let members: Vec<RingMember> = shards
            .iter()
            .map(|s| s.as_ref().expect("just launched").member.clone())
            .collect();
        let ring = HashRing::new(1, members);
        for shard in shards.iter().flatten() {
            shard.replicator.ring_update(ring.epoch(), ring.members());
        }
        Ok(LocalCluster { shards, ring })
    }

    /// The epoch-1 launch ring (membership changes made by clients do
    /// not reflect here — the cluster only tracks what it launched).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// A fresh router over the launch ring.
    pub fn client(&self) -> ClusterClient {
        ClusterClient::new(self.ring.clone())
    }

    /// The live handle for `shard`, when it has not been killed.
    pub fn shard(&self, shard: u32) -> Option<&ShardHandle> {
        self.shards.get(shard as usize).and_then(|s| s.as_ref())
    }

    /// Ids of the shards still running.
    pub fn live_shards(&self) -> Vec<u32> {
        self.shards
            .iter()
            .flatten()
            .map(|s| s.member.shard)
            .collect()
    }

    /// Kills `shard` abruptly: its server shuts down and the handle
    /// is dropped, so every connection to it dies mid-stream — the
    /// failure mode the failover protocol exists for. Idempotent.
    pub fn kill(&mut self, shard: u32) {
        if let Some(Some(handle)) = self.shards.get_mut(shard as usize).map(Option::take) {
            handle.server.shutdown();
        }
    }

    /// Engine metrics of a live shard (failovers, replication
    /// counters, alarm totals).
    pub fn engine_metrics(&self, shard: u32) -> Option<RuntimeMetrics> {
        self.shard(shard).map(|s| s.server.engine_metrics())
    }

    /// Shuts every remaining shard down.
    pub fn shutdown(mut self) {
        for shard in self.shards.iter_mut() {
            if let Some(handle) = shard.take() {
                handle.server.shutdown();
            }
        }
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        for shard in self.shards.iter_mut() {
            if let Some(handle) = shard.take() {
                handle.server.shutdown();
            }
        }
    }
}
