//! Cluster failover benchmark, emitting `results/BENCH_cluster.json`.
//!
//! Launches a 3-shard `awsad-cluster` ring on loopback, opens
//! [`SESSIONS`] live detection sessions across it, streams one batch
//! through every session, then kills one shard with no warning and
//! drives every session through a post-kill batch — the victim's
//! sessions fail over on first touch, so each one's recovery is
//! individually timed. The router checkpoints every session after its
//! first batch (a fresh checkpoint carries no payload, so the first
//! batch always reaches it), the shard replicates that checkpoint,
//! and replication is flushed before the kill: every failover finds
//! the replica at the router's progress point and adopts it. The
//! report breaks the failovers down by recovery branch.
//!
//! The report records the per-session failover latency distribution
//! (p50/p99/max) and — the property the whole subsystem exists for —
//! asserts **zero lost and zero duplicated progress**: every
//! session's full outcome stream, failed-over or not, must re-encode
//! to the byte-identical `TickOutcomes` wire image of an
//! uninterrupted single-server run. Any divergence fails the
//! process, so the CI leg doubles as a correctness gate.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use awsad_bench::{write_json, Json};
use awsad_cluster::LocalCluster;
use awsad_serve::client::Client;
use awsad_serve::server::{Server, ServerConfig};
use awsad_serve::wire::{Frame, SessionSpec, WireOutcome, WireTick};

/// Live sessions opened across the ring (override with
/// `AWSAD_CLUSTER_SESSIONS` for quick local runs).
const SESSIONS: usize = 10_000;
/// Shards on the ring.
const SHARDS: usize = 3;
/// Ticks per batch; every session streams one batch before the kill
/// and one after.
const BATCH: usize = 8;
/// Sanity ceiling on the slowest single-session failover.
const FAILOVER_P99_CEILING: Duration = Duration::from_secs(5);

/// The pinned per-session workload: DC-motor-position (Table 1
/// row 2) regulation, every session streaming the identical trace so
/// one reference run validates all of them.
fn pinned_trace() -> Vec<WireTick> {
    (0..2 * BATCH)
        .map(|i| WireTick {
            estimate: vec![(i as f64) * 0.003 - 0.02],
            input: vec![0.001 * (i % 5) as f64],
        })
        .collect()
}

fn server_config(sessions: usize) -> ServerConfig {
    ServerConfig {
        // The router holds one connection per shard, so one
        // connection legitimately owns thousands of sessions here.
        max_sessions_per_connection: sessions + 1,
        ..ServerConfig::default()
    }
}

/// The uninterrupted reference: the pinned trace through one plain
/// server, batch by batch.
fn reference_batches(trace: &[WireTick]) -> Vec<Vec<WireOutcome>> {
    let server = Server::bind("127.0.0.1:0", server_config(1)).expect("bind reference");
    let mut client = Client::connect(server.local_addr()).expect("connect reference");
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .expect("open reference");
    let batches = trace
        .chunks(BATCH)
        .map(|chunk| {
            client
                .tick_batch(session.id, chunk)
                .expect("reference batch")
        })
        .collect();
    server.shutdown();
    batches
}

fn wire_image(outcomes: &[WireOutcome]) -> Vec<u8> {
    Frame::TickOutcomes {
        session: 0,
        outcomes: outcomes.to_vec(),
    }
    .encode()
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

fn main() -> ExitCode {
    let sessions: usize = std::env::var("AWSAD_CLUSTER_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(SESSIONS);
    let trace = pinned_trace();
    let reference = reference_batches(&trace);
    let reference_full: Vec<u8> =
        wire_image(&reference.iter().flatten().cloned().collect::<Vec<_>>());

    println!("cluster_failover: {sessions} sessions across {SHARDS} shards");
    let mut cluster = LocalCluster::launch(SHARDS, server_config(sessions)).expect("launch");
    let mut client = cluster.client();

    // Open every session and stream its pre-kill batch.
    let spec = SessionSpec::model_defaults(2);
    let open_start = Instant::now();
    let keys: Vec<u64> = (0..sessions)
        .map(|_| client.open_session(&spec).expect("open").key)
        .collect();
    let open_elapsed = open_start.elapsed();
    let mut streams: Vec<Vec<WireOutcome>> = Vec::with_capacity(sessions);
    let pre_start = Instant::now();
    for &key in &keys {
        streams.push(client.tick_batch(key, &trace[..BATCH]).expect("pre-kill"));
    }
    let pre_elapsed = pre_start.elapsed();
    println!(
        "  opened in {:.2?}, pre-kill batch in {:.2?} ({:.0} ticks/s)",
        open_elapsed,
        pre_elapsed,
        (sessions * BATCH) as f64 / pre_elapsed.as_secs_f64()
    );

    // Kill the shard serving the first session; let in-flight
    // replication land first so promotions find their replicas.
    let victim = client.primary_of(keys[0]).expect("routed");
    let victim_sessions: Vec<bool> = keys
        .iter()
        .map(|&k| client.primary_of(k) == Some(victim))
        .collect();
    let victim_count = victim_sessions.iter().filter(|v| **v).count();
    cluster
        .shard(victim)
        .expect("victim is live")
        .replicator
        .flush(Duration::from_secs(30));
    cluster.kill(victim);
    println!("  killed shard {victim} serving {victim_count} sessions");

    // Post-kill batch for every session; the victim's sessions fail
    // over on first touch, individually timed.
    let mut failover_latencies: Vec<Duration> = Vec::with_capacity(victim_count);
    let post_start = Instant::now();
    for (i, &key) in keys.iter().enumerate() {
        let t0 = Instant::now();
        let outcomes = client.tick_batch(key, &trace[BATCH..]).expect("post-kill");
        if victim_sessions[i] {
            failover_latencies.push(t0.elapsed());
        }
        streams[i].extend(outcomes);
    }
    let post_elapsed = post_start.elapsed();

    // The gate: zero lost, zero duplicated progress, for every one of
    // the sessions — byte-identical to the uninterrupted reference.
    let mut divergent = 0usize;
    for stream in &streams {
        if wire_image(stream) != reference_full {
            divergent += 1;
        }
    }
    assert_eq!(
        divergent, 0,
        "{divergent}/{sessions} sessions lost or duplicated progress across the failover"
    );
    assert_eq!(
        client.failovers() as usize,
        victim_count,
        "every victim session (and only those) must fail over"
    );

    failover_latencies.sort();
    let p50 = percentile(&failover_latencies, 0.50);
    let p99 = percentile(&failover_latencies, 0.99);
    let max = failover_latencies.last().copied().unwrap_or(Duration::ZERO);
    println!(
        "  failover latency p50 {p50:.2?} / p99 {p99:.2?} / max {max:.2?} across {victim_count} sessions"
    );
    println!(
        "  post-kill batch in {:.2?} ({:.0} ticks/s), lost progress 0",
        post_elapsed,
        (sessions * BATCH) as f64 / post_elapsed.as_secs_f64()
    );
    assert!(
        p99 <= FAILOVER_P99_CEILING,
        "failover p99 {p99:.2?} blew the {FAILOVER_P99_CEILING:.2?} ceiling"
    );

    // Surviving shards must have absorbed the promotions.
    let survivor_failovers: u64 = cluster
        .live_shards()
        .into_iter()
        .filter_map(|s| cluster.engine_metrics(s))
        .map(|m| m.failovers)
        .sum();

    let recoveries = client.recoveries();
    let report = Json::Obj(vec![
        ("bench".into(), Json::str("cluster_failover")),
        ("sessions".into(), Json::Int(sessions as u64)),
        ("shards".into(), Json::Int(SHARDS as u64)),
        ("ticks_per_session".into(), Json::Int((2 * BATCH) as u64)),
        ("victim_shard".into(), Json::Int(victim as u64)),
        ("victim_sessions".into(), Json::Int(victim_count as u64)),
        ("failovers".into(), Json::Int(client.failovers())),
        (
            "recoveries".into(),
            Json::Obj(vec![
                ("adopted".into(), Json::Int(recoveries.adopted)),
                ("replayed".into(), Json::Int(recoveries.replayed)),
                ("restored".into(), Json::Int(recoveries.restored)),
            ]),
        ),
        (
            "promotions_on_survivors".into(),
            Json::Int(survivor_failovers),
        ),
        ("lost_ticks".into(), Json::Int(0)),
        ("duplicated_ticks".into(), Json::Int(0)),
        (
            "failover_latency_us".into(),
            Json::Obj(vec![
                ("p50".into(), Json::Int(p50.as_micros() as u64)),
                ("p99".into(), Json::Int(p99.as_micros() as u64)),
                ("max".into(), Json::Int(max.as_micros() as u64)),
            ]),
        ),
        (
            "open_sessions_ms".into(),
            Json::Int(open_elapsed.as_millis() as u64),
        ),
        (
            "pre_kill_ticks_per_sec".into(),
            Json::Num((sessions * BATCH) as f64 / pre_elapsed.as_secs_f64()),
        ),
        (
            "post_kill_ticks_per_sec".into(),
            Json::Num((sessions * BATCH) as f64 / post_elapsed.as_secs_f64()),
        ),
    ]);
    let path = write_json("BENCH_cluster.json", &report);
    println!("  report: {}", path.display());
    cluster.shutdown();
    ExitCode::SUCCESS
}
