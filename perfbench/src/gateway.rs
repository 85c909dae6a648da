//! `gateway`: the epoll server in-process behind one blocking client.
//!
//! `awsad_net::NetServer` with one shard whose engine runs the default
//! scalar drain on one worker; one `awsad_serve::Client` over loopback
//! holds ten sessions, two per Table-1 row, each with an exact deadline
//! cache. Requests are 16-tick batches, round-robin over the sessions,
//! one in flight. Per-tick detection is cheap here (cache hits and
//! walks of at most `w_m` = 40 steps), so frame codec, event loop and
//! engine hand-off dominate.

use std::time::Instant;

use awsad_net::{NetServer, NetServerConfig};
use awsad_runtime::EngineConfig;
use awsad_serve::client::Client;
use awsad_serve::server::ServerConfig;
use awsad_serve::wire::{SessionSpec, WireTick};

use crate::gate::{Digest, Ledger, WirePlan};
use crate::inputs::SessionStream;
use crate::phase::{Counters, Done, Load};
use crate::trace::Tracer;

/// Sessions: two per Table-1 row.
pub const SESSIONS: usize = 10;
/// Ticks per request.
pub const BATCH: usize = 16;
/// Exact deadline-cache capacity per session. Well below one pass over
/// a row's episode pool, so FIFO eviction forgets a state before its
/// episode comes round again: hits come from repeats inside an episode
/// (delay and replay attacks re-deliver measurements), not from the
/// pool cycling.
pub const CACHE_CAPACITY: u32 = 256;

/// The ten session specs.
pub fn specs() -> Vec<SessionSpec> {
    (0..SESSIONS)
        .map(|i| SessionSpec {
            cache_capacity: CACHE_CAPACITY,
            ..SessionSpec::model_defaults((i / 2 + 1) as u8)
        })
        .collect()
}

/// Server configuration: one shard, one worker, scalar drain.
pub fn server_config() -> NetServerConfig {
    NetServerConfig {
        base: ServerConfig {
            engine: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        },
        shards: 1,
        ..NetServerConfig::default()
    }
}

/// The running server, its client and the request cursor.
pub struct Gateway<'p> {
    server: NetServer,
    client: Option<Client>,
    remote: Vec<u64>,
    streams: Vec<SessionStream<'p>>,
    batch: usize,
    k: u64,
    ticks: Vec<WireTick>,
    /// Digests of completed requests.
    pub ledger: Ledger,
    corrupt: Option<u64>,
}

impl<'p> Gateway<'p> {
    /// Binds the server, connects, and opens every session of `plan`.
    ///
    /// # Errors
    ///
    /// Bind, connect or open failures.
    pub fn setup(plan: &WirePlan<'p>, corrupt: Option<u64>) -> Result<Gateway<'p>, String> {
        let server =
            NetServer::bind("127.0.0.1:0", server_config()).map_err(|e| format!("bind: {e}"))?;
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let remote = plan
            .specs
            .iter()
            .map(|spec| client.open_session(spec).map(|s| s.id))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("open: {e}"))?;
        Ok(Gateway {
            server,
            client: Some(client),
            remote,
            streams: plan.streams(),
            batch: plan.batch,
            k: 0,
            ticks: Vec::with_capacity(plan.batch),
            ledger: Ledger::new(plan.specs.len()),
            corrupt,
        })
    }

    /// Disconnects and stops the server.
    pub fn shutdown(mut self) {
        self.client = None;
        self.server.shutdown();
    }
}

impl Load for Gateway<'_> {
    fn next(&mut self, tracer: &mut Tracer) -> Result<Done, String> {
        let request = self.k;
        let root = tracer.now();
        let s = (self.k % self.remote.len() as u64) as usize;
        WirePlan::fill(&mut self.streams[s], self.batch, &mut self.ticks);
        let client = self.client.as_mut().expect("connected until shutdown");
        let span = tracer.now();
        let start = Instant::now();
        let result = client.tick_batch(self.remote[s], &self.ticks);
        let done = Instant::now();
        tracer.record("Client::tick_batch", request, false, span);
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
        let t = self.server.transport_metrics();
        Counters {
            engine: self.server.engine_metrics(),
            frames: t.frames_in + t.frames_out,
            partial_resumes: self.server.partial_frame_resumes(),
            ..Counters::default()
        }
    }
}
