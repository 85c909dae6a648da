//! `cluster`: a two-shard `LocalCluster` behind one `ClusterClient`.
//!
//! Two blocking `Server` shards (engine at one worker each, replication
//! on) and one router holding 256 sessions that cycle the five Table-1
//! rows, without deadline caches. Requests are 8-tick batches,
//! round-robin, one in flight; each costs a deliver round trip, a
//! checkpoint round trip and an asynchronous snapshot replication to
//! the other shard. Two shards rather than three keep the client at
//! two connections. Every thread of the cluster shares one CPU (see
//! `Placement` in `lib.rs`).

use std::time::Instant;

use awsad_cluster::{ClusterClient, LocalCluster};
use awsad_runtime::{EngineConfig, RuntimeMetrics};
use awsad_serve::server::ServerConfig;
use awsad_serve::wire::{Frame, SessionSpec, WireTick};

use crate::gate::{time_codec, Digest, Ledger, WirePlan};
use crate::inputs::SessionStream;
use crate::phase::{Counters, Done, Load};
use crate::trace::Tracer;

/// Shard servers.
pub const SHARDS: usize = 2;
/// Ticks per request.
pub const BATCH: usize = 8;

/// `sessions` specs cycling the Table-1 rows, no cache.
pub fn specs(sessions: usize) -> Vec<SessionSpec> {
    (0..sessions)
        .map(|i| SessionSpec::model_defaults((i % 5 + 1) as u8))
        .collect()
}

/// Shard configuration: one worker, and room for every session on one
/// connection.
pub fn server_config(sessions: usize) -> ServerConfig {
    ServerConfig {
        engine: EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        max_sessions_per_connection: sessions.max(1),
        ..ServerConfig::default()
    }
}

/// Checkpoint frame size and codec cost, measured after the phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointCost {
    /// Mean encoded `SessionSnapshot` frame, bytes (length prefix incl.).
    pub bytes: f64,
    /// Mean encode + decode time of one such frame, ns.
    pub codec_ns: f64,
}

/// The running cluster, its router and the request cursor.
pub struct Cluster<'p> {
    cluster: Option<LocalCluster>,
    client: Option<ClusterClient>,
    keys: Vec<u64>,
    streams: Vec<SessionStream<'p>>,
    batch: usize,
    k: u64,
    ticks: Vec<WireTick>,
    /// Digests of completed requests.
    pub ledger: Ledger,
    corrupt: Option<u64>,
}

impl<'p> Cluster<'p> {
    /// Launches the shards and opens every session of `plan` (each open
    /// includes the router's first checkpoint).
    ///
    /// # Errors
    ///
    /// Launch or open failures.
    pub fn setup(plan: &WirePlan<'p>, corrupt: Option<u64>) -> Result<Cluster<'p>, String> {
        let cluster = LocalCluster::launch(SHARDS, server_config(plan.specs.len()))
            .map_err(|e| format!("launch: {e}"))?;
        let mut client = cluster.client();
        let keys = plan
            .specs
            .iter()
            .map(|spec| client.open_session(spec).map(|s| s.key))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("open: {e}"))?;
        Ok(Cluster {
            cluster: Some(cluster),
            client: Some(client),
            keys,
            streams: plan.streams(),
            batch: plan.batch,
            k: 0,
            ticks: Vec::with_capacity(plan.batch),
            ledger: Ledger::new(plan.specs.len()),
            corrupt,
        })
    }

    /// Encodes and decodes every session's client-held checkpoint as the
    /// `SessionSnapshot` frame it arrived in, `reps` times.
    pub fn checkpoint_cost(&self, reps: usize) -> CheckpointCost {
        let client = self.client.as_ref().expect("connected until shutdown");
        let (mut bytes, mut ns, mut n) = (0u64, 0u64, 0u64);
        for rep in 0..reps.max(1) {
            for &key in &self.keys {
                let state = client.checkpoint(key).expect("routed key").clone();
                let frame = Frame::SessionSnapshot {
                    session: key,
                    state,
                };
                let (enc, dec, len) = time_codec(&frame, (rep as u64) << 32 | key);
                bytes += len;
                ns += enc + dec;
                n += 1;
            }
        }
        CheckpointCost {
            bytes: bytes as f64 / n.max(1) as f64,
            codec_ns: ns as f64 / n.max(1) as f64,
        }
    }

    /// Disconnects and stops every shard.
    pub fn shutdown(mut self) {
        self.client = None;
        if let Some(cluster) = self.cluster.take() {
            cluster.shutdown();
        }
    }
}

impl Load for Cluster<'_> {
    fn next(&mut self, tracer: &mut Tracer) -> Result<Done, String> {
        let request = self.k;
        let root = tracer.now();
        let s = (self.k % self.keys.len() as u64) as usize;
        WirePlan::fill(&mut self.streams[s], self.batch, &mut self.ticks);
        let client = self.client.as_mut().expect("connected until shutdown");
        let span = tracer.now();
        let start = Instant::now();
        let result = client.tick_batch(self.keys[s], &self.ticks);
        let done = Instant::now();
        tracer.record("ClusterClient::tick_batch", request, false, span);
        let mut outcomes = match result {
            Ok(o) => o,
            Err(e) => return Err(self.ledger.fail(format!("request {request}: {e}"))),
        };
        if self.corrupt == Some(request) {
            outcomes[0].current_alarm = !outcomes[0].current_alarm;
        }
        let mut digest = Digest::default();
        for o in &outcomes {
            digest.wire(o);
        }
        self.ledger.record(s, digest.finish());
        self.k += 1;
        tracer.record("request", request, true, root);
        Ok(Done {
            ticks: outcomes.len() as u64,
            latency_ns: (done - start).as_nanos() as u64,
        })
    }

    fn counters(&self) -> Counters {
        let cluster = self.cluster.as_ref().expect("running until shutdown");
        let mut c = Counters::default();
        let mut engine = RuntimeMetrics::zero();
        for shard in cluster.live_shards() {
            let h = cluster.shard(shard).expect("live shard");
            engine = engine.merged(&h.server.engine_metrics());
            let t = h.server.transport_metrics();
            c.frames += t.frames_in + t.frames_out;
            c.repl_delivered += h.replicator.delivered();
            c.repl_dropped += h.replicator.dropped();
        }
        c.engine = engine;
        c
    }
}
