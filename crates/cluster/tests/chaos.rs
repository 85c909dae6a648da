//! Cluster chaos: a shard killed under multi-session load, and a
//! fault-injection proxy making a *healthy* shard look dead. In
//! every case each session's outcome stream must re-encode to the
//! byte-identical wire image of its uninterrupted single-server run.

use std::net::SocketAddr;
use std::time::Duration;

use awsad_cluster::{ClusterClient, ClusterSession, LocalCluster, Recoveries};
use awsad_net::{NetServer, NetServerConfig};
use awsad_serve::client::Client;
use awsad_serve::server::ServerConfig;
use awsad_serve::wire::{Frame, WireOutcome, WireTick};
use awsad_testkit::scenario::{Scenario, SeedSpec};
use awsad_testkit::{FaultPlan, FaultProxy, ReplyFault};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

const SESSIONS: usize = 6;
const BATCH: usize = 8;

fn direct_outcomes(scenario: &Scenario) -> Vec<WireOutcome> {
    let spec = scenario.spec.as_ref().expect("registry scenario");
    let server =
        NetServer::bind("127.0.0.1:0", NetServerConfig::default()).expect("bind reference");
    let mut client = Client::connect(server.local_addr()).expect("connect reference");
    let session = client.open_session(spec).expect("open reference");
    let mut outcomes = Vec::new();
    for chunk in scenario.trace.chunks(BATCH) {
        outcomes.extend(
            client
                .tick_batch(session.id, chunk)
                .expect("reference batch"),
        );
    }
    server.shutdown();
    outcomes
}

fn wire_image(outcomes: Vec<WireOutcome>) -> Vec<u8> {
    Frame::TickOutcomes {
        session: 0,
        outcomes,
    }
    .encode()
}

/// Six sessions stream interleaved batches across a 3-shard ring;
/// one shard is killed with no warning mid-load. Every stream —
/// failed-over or untouched — must finish byte-identical to its
/// direct reference, with no tick lost or repeated.
#[test]
fn killing_a_shard_under_multi_session_load_loses_nothing() {
    let mut rng = StdRng::seed_from_u64(0xC4A0_5000);
    let scenarios: Vec<Scenario> = (0..SESSIONS)
        .map(|_| {
            Scenario::from_seed(&SeedSpec::registry(rng.random_range(0..=u64::MAX)).with_len(48))
        })
        .collect();
    let references: Vec<Vec<u8>> = scenarios
        .iter()
        .map(|s| wire_image(direct_outcomes(s)))
        .collect();

    let mut cluster = LocalCluster::launch(3, ServerConfig::default()).expect("launch");
    let mut client = cluster.client();
    let sessions: Vec<ClusterSession> = scenarios
        .iter()
        .map(|s| {
            client
                .open_session(s.spec.as_ref().expect("registry scenario"))
                .expect("open")
        })
        .collect();
    let batches: usize = scenarios[0].trace.len() / BATCH;
    let mut streams: Vec<Vec<WireOutcome>> = vec![Vec::new(); SESSIONS];

    // Pick the victim: whichever shard serves session 0 right now.
    let victim = client.primary_of(sessions[0].key).expect("routed");
    let on_victim = sessions
        .iter()
        .filter(|s| client.primary_of(s.key) == Some(victim))
        .count() as u64;

    for round in 0..batches {
        if round == batches / 2 {
            // Let in-flight replication land, then pull the plug.
            cluster
                .shard(victim)
                .expect("victim is live")
                .replicator
                .flush(Duration::from_secs(5));
            cluster.kill(victim);
        }
        for (i, scenario) in scenarios.iter().enumerate() {
            let chunk = &scenario.trace[round * BATCH..(round + 1) * BATCH];
            streams[i].extend(
                client
                    .tick_batch(sessions[i].key, chunk)
                    .expect("batch under chaos"),
            );
        }
    }

    assert_eq!(
        client.failovers(),
        on_victim,
        "exactly the victim's sessions fail over"
    );
    assert!(on_victim >= 1, "the victim must have served session 0");
    // Replication really flowed before the kill: some survivor holds
    // delivered replicas, and the survivors' engines saw promotions.
    let survivor_failovers: u64 = cluster
        .live_shards()
        .into_iter()
        .filter_map(|s| cluster.engine_metrics(s))
        .map(|m| m.failovers)
        .sum();
    assert!(
        survivor_failovers <= on_victim,
        "promotions cannot exceed failed-over sessions"
    );
    for (i, stream) in streams.into_iter().enumerate() {
        assert_eq!(
            wire_image(stream),
            references[i],
            "session {i} diverged from its direct reference"
        );
        client.close_session(sessions[i].key).expect("close");
    }
    cluster.shutdown();
}

/// A three-shard cluster whose member serving cluster key 1 (the first
/// key a fresh client assigns) is reached through a fault proxy
/// running `plan`, and a fresh router over that ring.
struct Proxied {
    cluster: LocalCluster,
    _proxy: FaultProxy,
    client: ClusterClient,
    primary: u32,
}

impl Proxied {
    fn start(plan: FaultPlan) -> Proxied {
        let cluster = LocalCluster::launch(3, ServerConfig::default()).expect("launch");
        // The primary is a pure ring function, so the proxy can be
        // interposed on exactly that member before the client ever
        // connects.
        let primary = cluster.ring().primary_for(1).expect("non-empty ring");
        let proxy = FaultProxy::start(cluster_addr(&cluster, primary), vec![plan]);
        let mut members = cluster.ring().members().to_vec();
        members
            .iter_mut()
            .find(|m| m.shard == primary)
            .expect("primary is a member")
            .addr = proxy.addr().to_string();
        Proxied {
            cluster,
            _proxy: proxy,
            client: ClusterClient::from_members(&members),
            primary,
        }
    }

    /// Waits until the real primary has shipped every queued replica.
    fn flush_primary(&self) {
        assert!(
            self.cluster
                .shard(self.primary)
                .expect("primary is live")
                .replicator
                .flush(Duration::from_secs(5)),
            "replication did not drain"
        );
    }

    /// Promotions performed across the cluster.
    fn promotions(&self) -> u64 {
        self.cluster
            .live_shards()
            .into_iter()
            .filter_map(|s| self.cluster.engine_metrics(s))
            .map(|m| m.failovers)
            .sum()
    }
}

fn cluster_addr(cluster: &LocalCluster, shard: u32) -> SocketAddr {
    cluster
        .shard(shard)
        .expect("shard is live")
        .server
        .local_addr()
}

/// Streams `ticks` through the router in `BATCH`-tick requests.
fn stream(client: &mut ClusterClient, key: u64, ticks: &[WireTick], out: &mut Vec<WireOutcome>) {
    for chunk in ticks.chunks(BATCH) {
        out.extend(client.tick_batch(key, chunk).expect("batch"));
    }
}

/// A tick reply dropped by the proxy *after* the server applied the
/// batch: the client declares the (perfectly healthy) shard dead and
/// fails over. Servers replicate only what `SnapshotSession` returns,
/// so the applied-but-unanswered batch never reached the backup: the
/// replica is the client's last checkpoint, exactly at its progress
/// point, and is adopted — the duplicated server-side work stays
/// invisible to the caller.
#[test]
fn dropped_tick_reply_finds_the_replica_at_the_clients_progress() {
    let seed = SeedSpec::registry(0xFA_07_70).with_len(48);
    let scenario = Scenario::from_seed(&seed);
    let spec = scenario.spec.as_ref().expect("registry scenario");
    let reference = wire_image(direct_outcomes(&scenario));

    // Connection reply order: hello(0), open(1), open-time
    // checkpoint(2), first batch(3), its checkpoint(4) — the fresh
    // checkpoint carries no payload, so the first batch is always
    // checkpointed — then the second batch(5), dropped after the
    // server applied it.
    let mut p = Proxied::start(FaultPlan::after(5, ReplyFault::Drop));
    let session = p.client.open_session(spec).expect("open through proxy");
    assert_eq!(
        session.key, 1,
        "key assignment must match the interposed member"
    );
    let mut outcomes = Vec::new();
    stream(
        &mut p.client,
        session.key,
        &scenario.trace[..BATCH],
        &mut outcomes,
    );
    assert_eq!(
        p.client.checkpoint(session.key).expect("routed").next_seq,
        BATCH as u64
    );
    // The checkpoint's replica is on the backup before the drop.
    p.flush_primary();
    stream(
        &mut p.client,
        session.key,
        &scenario.trace[BATCH..],
        &mut outcomes,
    );

    assert_eq!(
        p.client.recoveries(),
        Recoveries {
            adopted: 1,
            ..Recoveries::default()
        },
        "the replica must sit at the client's progress, not ahead of it"
    );
    assert_eq!(p.promotions(), 1);
    assert_ne!(
        p.client.primary_of(session.key),
        Some(p.primary),
        "the session moved off the proxied member"
    );
    // The original shard is alive and well — failover was a client
    // decision, and it must not have corrupted the survivor.
    let mut probe =
        Client::connect(cluster_addr(&p.cluster, p.primary)).expect("original shard accepts");
    probe
        .open_session(&awsad_serve::wire::SessionSpec::model_defaults(2))
        .expect("original shard still serves");
    assert_eq!(wire_image(outcomes), reference);
    p.cluster.shutdown();
}

/// The reply to the checkpoint after a delivered batch is dropped:
/// the batch's outcomes still reach the caller, the shard is declared
/// dead, and the next call fails over. The server replicated the
/// snapshot before its reply was lost, so the backup holds the session
/// at the client's progress point — its checkpoint plus the logged
/// batch — and adopts it.
#[test]
fn dropped_checkpoint_reply_still_returns_the_batch() {
    let seed = SeedSpec::registry(0xC4EC_4B07).with_len(40);
    let scenario = Scenario::from_seed(&seed);
    let spec = scenario.spec.as_ref().expect("registry scenario");
    let reference = wire_image(direct_outcomes(&scenario));

    // Reply 4 is the checkpoint after the first batch (see above).
    let mut p = Proxied::start(FaultPlan::after(4, ReplyFault::Drop));
    let session = p.client.open_session(spec).expect("open through proxy");
    assert_eq!(session.key, 1);
    let mut outcomes = p
        .client
        .tick_batch(session.key, &scenario.trace[..BATCH])
        .expect("the delivered batch is returned");
    assert_eq!(outcomes.len(), BATCH);
    assert_eq!(
        p.client.checkpoint(session.key).expect("routed").next_seq,
        0,
        "the batch lives in the log"
    );
    assert_eq!(p.client.failovers(), 0, "failover waits for the next call");
    p.flush_primary();
    stream(
        &mut p.client,
        session.key,
        &scenario.trace[BATCH..],
        &mut outcomes,
    );
    assert_eq!(
        p.client.recoveries(),
        Recoveries {
            adopted: 1,
            ..Recoveries::default()
        }
    );
    assert_eq!(p.promotions(), 1);
    assert_eq!(wire_image(outcomes), reference);
    p.cluster.shutdown();
}
