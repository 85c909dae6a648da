//! The router's checkpoint cadence, counted on the servers. A session
//! streamed through a 2-shard cluster sends its primary one `Hello`,
//! one `OpenSession`, one `Tick` per batch and otherwise only
//! `SnapshotSession` requests, so the primary's `frames_in` gives the
//! number of checkpoints. It must equal what the byte-budget rule
//! predicts — checkpoint once the tick log's f64 count reaches the
//! checkpoint's — and the primary must ship one replica per checkpoint
//! after the open-time one, which the backup (and only the backup)
//! counts as stored.

use std::time::Duration;

use awsad_cluster::LocalCluster;
use awsad_net::{NetServer, NetServerConfig};
use awsad_serve::client::Client;
use awsad_serve::server::ServerConfig;
use awsad_serve::wire::{SessionSpec, WireSessionState, WireTick};

const BATCH: usize = 8;

/// The f64 values a checkpoint retains: every entry's estimate, input,
/// prediction and residual, plus recalibrated matrices.
fn payload(state: &WireSessionState) -> usize {
    let entries: usize = state
        .entries
        .iter()
        .map(|e| {
            e.estimate.len()
                + e.input.len()
                + e.prediction.as_ref().map_or(0, Vec::len)
                + e.residual.len()
        })
        .sum();
    entries
        + state
            .recalibration
            .as_ref()
            .map_or(0, |r| r.a.len() + r.b.len())
}

/// A pinned regulation trace of `len` ticks for an `n`-state,
/// `m`-input plant.
fn pinned_trace(n: usize, m: usize, len: usize) -> Vec<WireTick> {
    (0..len)
        .map(|i| WireTick {
            estimate: vec![(i % 16) as f64 * 0.003 - 0.02; n],
            input: vec![0.001 * (i % 5) as f64; m],
        })
        .collect()
}

/// Post-open checkpoints the rule takes over `trace`, replayed against
/// a plain server (snapshots are deterministic, so its states are the
/// cluster's).
fn predicted_checkpoints(spec: &SessionSpec, trace: &[WireTick]) -> u64 {
    let server = NetServer::bind("127.0.0.1:0", NetServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let session = client.open_session(spec).expect("open");
    let mut budget = payload(&client.snapshot_session(session.id).expect("snapshot"));
    let (mut log, mut checkpoints) = (0, 0);
    for batch in trace.chunks(BATCH) {
        client.tick_batch(session.id, batch).expect("batch");
        log += batch
            .iter()
            .map(|t| t.estimate.len() + t.input.len())
            .sum::<usize>();
        if log >= budget {
            budget = payload(&client.snapshot_session(session.id).expect("snapshot"));
            log = 0;
            checkpoints += 1;
        }
    }
    server.shutdown();
    checkpoints
}

#[test]
fn checkpoints_follow_the_byte_budget_rule() {
    // Table-1 row 2 at its default window, as the benchmark runs it.
    let spec = SessionSpec::model_defaults(2);
    let cluster = LocalCluster::launch(2, ServerConfig::default()).expect("launch");
    let mut client = cluster.client();
    let session = client.open_session(&spec).expect("open");
    let trace = pinned_trace(session.state_dim, session.input_dim, 480);
    let batches = trace.chunks(BATCH).len() as u64;
    let predicted = predicted_checkpoints(&spec, &trace);
    for batch in trace.chunks(BATCH) {
        client.tick_batch(session.key, batch).expect("batch");
    }
    let primary = client.primary_of(session.key).expect("routed");
    let shard = cluster.shard(primary).expect("primary is live");
    let frames_in = shard.server.transport_metrics().frames_in;
    // Hello, OpenSession, one Tick per batch; the rest are snapshots,
    // the open-time one included.
    let snapshots = frames_in - 2 - batches;
    assert_eq!(
        snapshots,
        1 + predicted,
        "{frames_in} frames in over {batches} batches"
    );
    assert!(
        4 * predicted <= batches,
        "{predicted} checkpoints over {batches} batches is no saving"
    );

    assert!(shard.replicator.flush(Duration::from_secs(5)));
    assert_eq!(
        shard.replicator.delivered(),
        predicted,
        "one replica per post-open checkpoint"
    );
    // `sessions_replicated` counts replicas a node stored, not sent.
    let backup = (0..2).find(|&s| s != primary).expect("two shards");
    let stored = |s| {
        cluster
            .shard(s)
            .expect("shard is live")
            .server
            .engine_metrics()
            .sessions_replicated
    };
    assert_eq!(predicted, 7, "the pinned trace's checkpoint count");
    assert_eq!(stored(backup), predicted, "the backup stored every replica");
    assert_eq!(stored(primary), 0, "the primary stored none");
    println!("{predicted} checkpoints over {batches} batches");
    cluster.shutdown();
}
