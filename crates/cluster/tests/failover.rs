//! Failover and migration must be invisible in the outcome stream:
//! a scenario streamed through a 3-shard cluster with its primary
//! killed (or drained) mid-stream re-encodes to the byte-identical
//! `TickOutcomes` wire image of an uninterrupted single-server run.
//!
//! Each branch of the promotion decision has its own deterministic
//! test, told apart by the client's [`Recoveries`] and the survivors'
//! `failovers` metric (promotions): no replica (restore), the
//! checkpoint's replica (promote, then replay the tick log), a replica
//! at the client's progress point (promote and adopt), a stale
//! replica (promote, discard, restore and replay), and a replica cut
//! just before a model swap, which shares the post-swap checkpoint's
//! `next_seq` and must still be discarded. A replica whose retained
//! window holds non-finite and extreme values is adopted bit for bit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use awsad_cluster::{ClusterClient, LocalCluster, Recoveries, Replicator, RetryPolicy};
use awsad_core::AdaptiveStep;
use awsad_net::{NetServer, NetServerConfig};
use awsad_serve::client::Client;
use awsad_serve::server::ServerConfig;
use awsad_serve::wire::{Frame, RingMember, WireOutcome};
use awsad_serve::{ReplicationSink, ReplicationUpdate};
use awsad_testkit::oracle::direct_steps;
use awsad_testkit::scenario::{Scenario, SeedSpec};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

const BATCH: usize = 8;

/// The uninterrupted reference: the scenario streamed through one
/// plain server.
fn direct_outcomes(scenario: &Scenario) -> Vec<WireOutcome> {
    let spec = scenario.spec.as_ref().expect("registry scenario");
    let server =
        NetServer::bind("127.0.0.1:0", NetServerConfig::default()).expect("bind reference");
    let mut client = Client::connect(server.local_addr()).expect("connect reference");
    let session = client.open_session(spec).expect("open reference");
    let mut outcomes = Vec::new();
    for chunk in scenario.trace.chunks(16) {
        outcomes.extend(
            client
                .tick_batch(session.id, chunk)
                .expect("reference batch"),
        );
    }
    server.shutdown();
    outcomes
}

/// Byte-level comparison under a fixed session id: session ids differ
/// between the cluster and the reference server, the outcomes may not.
fn assert_wire_identical(seed: &SeedSpec, got: Vec<WireOutcome>, want: Vec<WireOutcome>) {
    let got_image = Frame::TickOutcomes {
        session: 0,
        outcomes: got,
    }
    .encode();
    let want_image = Frame::TickOutcomes {
        session: 0,
        outcomes: want,
    }
    .encode();
    assert_eq!(
        got_image, want_image,
        "cluster outcome stream is not byte-identical to the direct run (seed {seed})"
    );
}

#[test]
fn killing_the_primary_mid_stream_leaves_the_outcome_bytes_unchanged() {
    let mut rng = StdRng::seed_from_u64(0xC105_7E12);
    for _ in 0..8 {
        let seed = SeedSpec::registry(rng.random_range(0..=u64::MAX)).with_len(64);
        let scenario = Scenario::from_seed(&seed);
        let spec = scenario.spec.as_ref().expect("registry scenario");
        let reference = direct_outcomes(&scenario);

        let mut cluster = LocalCluster::launch(3, ServerConfig::default()).expect("launch");
        let mut client = cluster.client();
        let session = client.open_session(spec).expect("open");
        let mut outcomes = Vec::new();
        let cut = scenario.trace.len() / 2;
        for chunk in scenario.trace[..cut].chunks(8) {
            outcomes.extend(client.tick_batch(session.key, chunk).expect("pre-kill"));
        }
        // Let replication land so promotion has a replica to take,
        // then kill the primary without warning.
        let primary = client.primary_of(session.key).expect("routed");
        cluster
            .shard(primary)
            .expect("primary is live")
            .replicator
            .flush(std::time::Duration::from_secs(5));
        cluster.kill(primary);
        for chunk in scenario.trace[cut..].chunks(8) {
            outcomes.extend(client.tick_batch(session.key, chunk).expect("post-kill"));
        }
        assert_eq!(client.failovers(), 1, "exactly one failover (seed {seed})");
        assert_ne!(
            client.primary_of(session.key),
            Some(primary),
            "the session must have moved off the dead shard"
        );
        client.close_session(session.key).expect("close");
        assert_wire_identical(&seed, outcomes, reference);
        cluster.shutdown();
    }
}

/// Per-sensor families carry an output map in their spec; the map
/// travels inside `ReplicateSnapshot` / `RestoreSession` frames, so a
/// mid-stream failover must reproduce the byte-identical outcome
/// stream with the output map intact on whichever recovery path
/// (replica promotion or client checkpoint) ends up running.
#[test]
fn killing_the_primary_is_invisible_for_output_map_scenarios() {
    let mut rng = StdRng::seed_from_u64(0x5E02_7E12);
    for i in 0..6 {
        let seed = if i % 2 == 0 {
            SeedSpec::sensor(rng.random_range(0..=u64::MAX)).with_len(64)
        } else {
            SeedSpec::severe(rng.random_range(0..=u64::MAX)).with_len(64)
        };
        let scenario = Scenario::from_seed(&seed);
        let spec = scenario
            .spec
            .as_ref()
            .expect("sensor families are wire-capable");
        assert!(
            !spec.output_map.is_empty(),
            "the scenario under test must actually carry an output map"
        );
        let reference = direct_outcomes(&scenario);

        let mut cluster = LocalCluster::launch(3, ServerConfig::default()).expect("launch");
        let mut client = cluster.client();
        let session = client.open_session(spec).expect("open");
        let mut outcomes = Vec::new();
        let cut = scenario.trace.len() / 2;
        for chunk in scenario.trace[..cut].chunks(8) {
            outcomes.extend(client.tick_batch(session.key, chunk).expect("pre-kill"));
        }
        let primary = client.primary_of(session.key).expect("routed");
        cluster
            .shard(primary)
            .expect("primary is live")
            .replicator
            .flush(std::time::Duration::from_secs(5));
        cluster.kill(primary);
        for chunk in scenario.trace[cut..].chunks(8) {
            outcomes.extend(client.tick_batch(session.key, chunk).expect("post-kill"));
        }
        assert_eq!(client.failovers(), 1, "exactly one failover (seed {seed})");
        client.close_session(session.key).expect("close");
        assert_wire_identical(&seed, outcomes, reference);
        cluster.shutdown();
    }
}

/// Promotions the live shards performed (their engines' `failovers`).
fn promotions(cluster: &LocalCluster) -> u64 {
    cluster
        .live_shards()
        .into_iter()
        .filter_map(|s| cluster.engine_metrics(s))
        .map(|m| m.failovers)
        .sum()
}

/// Waits until the session's primary has shipped every queued replica.
fn flush_primary(cluster: &LocalCluster, client: &ClusterClient, key: u64) {
    let primary = client.primary_of(key).expect("routed");
    assert!(
        cluster
            .shard(primary)
            .expect("primary is live")
            .replicator
            .flush(Duration::from_secs(5)),
        "replication did not drain"
    );
}

/// Kills the session's primary, streams `rest` through the router
/// and returns the outcomes.
fn kill_and_stream(
    cluster: &mut LocalCluster,
    client: &mut ClusterClient,
    key: u64,
    rest: &[awsad_serve::wire::WireTick],
) -> Vec<WireOutcome> {
    let primary = client.primary_of(key).expect("routed");
    cluster.kill(primary);
    let mut outcomes = Vec::new();
    for chunk in rest.chunks(BATCH) {
        outcomes.extend(client.tick_batch(key, chunk).expect("post-kill"));
    }
    assert_ne!(client.primary_of(key), Some(primary), "session moved");
    outcomes
}

#[test]
fn failover_without_a_replica_restores_from_the_client_checkpoint() {
    // The primary dies before the first batch: the only checkpoint is
    // the open-time one, which no server replicates (a fresh session
    // is rebuilt from its spec), so promotion finds nothing. Every
    // non-empty first batch is followed by a checkpoint — the fresh
    // one carries no payload — so this is the one point where "no
    // replica" does not hang on replication timing.
    let seed = SeedSpec::registry(0x00D1_CE77).with_len(32);
    let scenario = Scenario::from_seed(&seed);
    let spec = scenario.spec.as_ref().expect("registry scenario");
    let reference = direct_outcomes(&scenario);

    let mut cluster = LocalCluster::launch(3, ServerConfig::default()).expect("launch");
    let mut client = cluster.client();
    let session = client.open_session(spec).expect("open");
    assert_eq!(client.checkpoint(session.key).expect("routed").next_seq, 0);
    let outcomes = kill_and_stream(&mut cluster, &mut client, session.key, &scenario.trace);
    assert_eq!(
        client.recoveries(),
        Recoveries {
            restored: 1,
            ..Recoveries::default()
        }
    );
    assert_eq!(promotions(&cluster), 0, "there was no replica to promote");
    assert_wire_identical(&seed, outcomes, reference);
    cluster.shutdown();
}

#[test]
fn failover_onto_the_checkpoint_replica_replays_the_tick_log() {
    let seed = SeedSpec::registry(0x0BAC_4106).with_len(48);
    let scenario = Scenario::from_seed(&seed);
    let spec = scenario.spec.as_ref().expect("registry scenario");
    let reference = direct_outcomes(&scenario);

    let mut cluster = LocalCluster::launch(3, ServerConfig::default()).expect("launch");
    let mut client = cluster.client();
    let session = client.open_session(spec).expect("open");
    let mut outcomes = client
        .tick_batch(session.key, &scenario.trace[..BATCH])
        .expect("first batch");
    assert_eq!(
        client.checkpoint(session.key).expect("routed").next_seq,
        BATCH as u64,
        "the first batch is always checkpointed"
    );
    flush_primary(&cluster, &client, session.key);
    outcomes.extend(
        client
            .tick_batch(session.key, &scenario.trace[BATCH..2 * BATCH])
            .expect("second batch"),
    );
    assert_eq!(
        client.checkpoint(session.key).expect("routed").next_seq,
        BATCH as u64,
        "a batch smaller than the checkpoint is only logged"
    );
    outcomes.extend(kill_and_stream(
        &mut cluster,
        &mut client,
        session.key,
        &scenario.trace[2 * BATCH..],
    ));
    assert_eq!(
        client.recoveries(),
        Recoveries {
            replayed: 1,
            ..Recoveries::default()
        }
    );
    assert_eq!(promotions(&cluster), 1);
    assert_wire_identical(&seed, outcomes, reference);
    cluster.shutdown();
}

#[test]
fn failover_right_after_a_checkpoint_adopts_the_replica() {
    let seed = SeedSpec::registry(0x0AD0_F7ED).with_len(40);
    let scenario = Scenario::from_seed(&seed);
    let spec = scenario.spec.as_ref().expect("registry scenario");
    let reference = direct_outcomes(&scenario);

    let mut cluster = LocalCluster::launch(3, ServerConfig::default()).expect("launch");
    let mut client = cluster.client();
    let session = client.open_session(spec).expect("open");
    let mut outcomes = client
        .tick_batch(session.key, &scenario.trace[..BATCH])
        .expect("first batch");
    assert_eq!(
        client.checkpoint(session.key).expect("routed").next_seq,
        BATCH as u64
    );
    flush_primary(&cluster, &client, session.key);
    outcomes.extend(kill_and_stream(
        &mut cluster,
        &mut client,
        session.key,
        &scenario.trace[BATCH..],
    ));
    assert_eq!(
        client.recoveries(),
        Recoveries {
            adopted: 1,
            ..Recoveries::default()
        }
    );
    assert_eq!(promotions(&cluster), 1);
    assert_wire_identical(&seed, outcomes, reference);
    cluster.shutdown();
}

/// Non-finite, overflowing, subnormal and signed-zero values, as in
/// `crates/net/tests/loopback.rs`.
const HOSTILE: [f64; 8] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX,
    -f64::MAX,
    1e300,
    5e-324,
    -0.0,
];

#[test]
fn a_replica_holding_hostile_values_is_adopted_bit_identically() {
    // The first batch is always checkpointed. Its last eight ticks
    // carry each hostile value once as an estimate and once as an
    // input, so the replicated checkpoint's window (w_m = 12) holds
    // every one of them when the primary dies.
    let seed = SeedSpec::registry(0x4057_1E07).with_len(48);
    let mut scenario = Scenario::from_seed(&seed);
    assert!(scenario.max_window >= HOSTILE.len() && scenario.cache_capacity > 0);
    let first = 2 * BATCH;
    for (i, &v) in HOSTILE.iter().enumerate() {
        let tick = &mut scenario.trace[first - HOSTILE.len() + i];
        tick.estimate[0] = v;
        tick.input[0] = HOSTILE[HOSTILE.len() - 1 - i];
    }
    let spec = scenario.spec.as_ref().expect("registry scenario");
    let reference = direct_outcomes(&scenario);

    let mut cluster = LocalCluster::launch(3, ServerConfig::default()).expect("launch");
    let mut client = cluster.client();
    let key = client.open_session(spec).expect("open").key;
    let mut outcomes = client
        .tick_batch(key, &scenario.trace[..first])
        .expect("first batch");
    let checkpoint = client.checkpoint(key).expect("routed");
    assert_eq!(checkpoint.next_seq, first as u64);
    let held: Vec<u64> = checkpoint
        .entries
        .iter()
        .flat_map(|e| [e.estimate[0].to_bits(), e.input[0].to_bits()])
        .collect();
    for v in HOSTILE {
        assert!(held.contains(&v.to_bits()), "the window lost {v:e}");
    }
    flush_primary(&cluster, &client, key);
    outcomes.extend(kill_and_stream(
        &mut cluster,
        &mut client,
        key,
        &scenario.trace[first..],
    ));
    assert_eq!(
        client.recoveries(),
        Recoveries {
            adopted: 1,
            ..Recoveries::default()
        }
    );
    assert_eq!(promotions(&cluster), 1);
    let steps: Vec<AdaptiveStep> = outcomes.iter().map(WireOutcome::to_step).collect();
    assert_eq!(steps, direct_steps(&scenario), "seed {seed}");
    assert_wire_identical(&seed, outcomes, reference);
    cluster.shutdown();
}

/// Forwards only its first update to the shard's replicator, so a
/// backup keeps the oldest replicated cut of a session.
struct FirstUpdateOnly {
    replicator: Arc<Replicator>,
    forwarded: AtomicBool,
}

impl ReplicationSink for FirstUpdateOnly {
    fn replicate(&self, update: ReplicationUpdate) -> u64 {
        if self.forwarded.swap(true, Ordering::SeqCst) {
            0
        } else {
            self.replicator.replicate(update)
        }
    }

    fn ring_update(&self, epoch: u64, members: &[RingMember]) {
        self.replicator.ring_update(epoch, members);
    }
}

#[test]
fn failover_past_a_stale_replica_restores_the_checkpoint_and_replays() {
    let seed = SeedSpec::registry(0x57A1_E000).with_len(128);
    let scenario = Scenario::from_seed(&seed);
    let spec = scenario.spec.as_ref().expect("registry scenario");
    let reference = direct_outcomes(&scenario);

    let mut cluster = LocalCluster::launch_with_sinks(3, ServerConfig::default(), |r| {
        Arc::new(FirstUpdateOnly {
            replicator: Arc::clone(r),
            forwarded: AtomicBool::new(false),
        })
    })
    .expect("launch");
    let mut client = cluster.client();
    let session = client.open_session(spec).expect("open");
    let mut batches = scenario.trace.chunks(BATCH);
    let mut outcomes = Vec::new();
    // Stream until a second checkpoint has been taken (the sink drops
    // its replica, so the backup keeps the first one), then one more
    // batch so the log is not empty.
    while client.checkpoint(session.key).expect("routed").next_seq <= BATCH as u64 {
        let batch = batches.next().expect("the trace outlasts two checkpoints");
        outcomes.extend(client.tick_batch(session.key, batch).expect("batch"));
    }
    outcomes.extend(
        client
            .tick_batch(session.key, batches.next().expect("one more batch"))
            .expect("logged batch"),
    );
    let checkpoint = client.checkpoint(session.key).expect("routed").next_seq;
    assert!(
        checkpoint < outcomes.len() as u64,
        "the last batch must be in the log"
    );
    flush_primary(&cluster, &client, session.key);
    outcomes.extend(kill_and_stream(
        &mut cluster,
        &mut client,
        session.key,
        &scenario.trace[outcomes.len()..],
    ));
    assert_eq!(
        client.recoveries(),
        Recoveries {
            restored: 1,
            ..Recoveries::default()
        }
    );
    assert_eq!(
        promotions(&cluster),
        1,
        "the stale replica is promoted, then discarded"
    );
    assert_wire_identical(&seed, outcomes, reference);
    cluster.shutdown();
}

/// Forwards only states that carry no model swap, so a backup keeps
/// the last pre-swap cut of a session.
struct PreSwapOnly(Arc<Replicator>);

impl ReplicationSink for PreSwapOnly {
    fn replicate(&self, update: ReplicationUpdate) -> u64 {
        if update.state.recalibration.is_some() {
            0
        } else {
            self.0.replicate(update)
        }
    }

    fn ring_update(&self, epoch: u64, members: &[RingMember]) {
        self.0.ring_update(epoch, members);
    }
}

#[test]
fn a_replica_cut_before_a_model_swap_is_not_adopted_after_it() {
    // The pre-swap checkpoint and the post-swap one share a `next_seq`;
    // only the recalibration count tells them apart.
    let seed = SeedSpec::drift(0x00D2_1F75);
    let scenario = Scenario::from_seed(&seed);
    let spec = scenario.spec.as_ref().expect("drift scenario");
    let recal = scenario.recalibration.as_ref().expect("drift scenario");
    let at = recal.at;
    assert!(at < scenario.trace.len(), "the swap must precede the kill");
    let (n, m) = recal.b.shape();
    let (n, m, a, b) = (n as u32, m as u32, recal.a.as_slice(), recal.b.as_slice());

    let server =
        NetServer::bind("127.0.0.1:0", NetServerConfig::default()).expect("bind reference");
    let mut direct = Client::connect(server.local_addr()).expect("connect reference");
    let id = direct.open_session(spec).expect("open reference").id;
    let mut reference = direct.tick_batch(id, &scenario.trace[..at]).expect("batch");
    assert_eq!(direct.recalibrate(id, n, m, a, b).expect("swap"), 1);
    for chunk in scenario.trace[at..].chunks(BATCH) {
        reference.extend(direct.tick_batch(id, chunk).expect("batch"));
    }
    server.shutdown();

    let mut cluster = LocalCluster::launch_with_sinks(3, ServerConfig::default(), |r| {
        Arc::new(PreSwapOnly(Arc::clone(r)))
    })
    .expect("launch");
    let mut client = cluster.client();
    let key = client.open_session(spec).expect("open").key;
    // One batch up to the swap: the first batch is always checkpointed.
    let mut outcomes = client
        .tick_batch(key, &scenario.trace[..at])
        .expect("pre-swap batch");
    assert_eq!(client.checkpoint(key).expect("routed").next_seq, at as u64);
    flush_primary(&cluster, &client, key);
    assert_eq!(client.recalibrate(key, n, m, a, b).expect("swap"), 1);
    outcomes.extend(kill_and_stream(
        &mut cluster,
        &mut client,
        key,
        &scenario.trace[at..],
    ));
    assert_eq!(
        client.recoveries(),
        Recoveries {
            restored: 1,
            ..Recoveries::default()
        }
    );
    assert_eq!(promotions(&cluster), 1, "promoted, then discarded");
    assert_wire_identical(&seed, outcomes, reference);
    cluster.shutdown();
}

#[test]
fn draining_a_shard_moves_its_sessions_with_zero_dropped_ticks() {
    let mut rng = StdRng::seed_from_u64(0x000D_4A11);
    for _ in 0..4 {
        let seed = SeedSpec::registry(rng.random_range(0..=u64::MAX)).with_len(64);
        let scenario = Scenario::from_seed(&seed);
        let spec = scenario.spec.as_ref().expect("registry scenario");
        let reference = direct_outcomes(&scenario);

        let cluster = LocalCluster::launch(3, ServerConfig::default()).expect("launch");
        let mut client = cluster.client();
        let session = client.open_session(spec).expect("open");
        let mut outcomes = Vec::new();
        let cut = scenario.trace.len() / 2;
        for chunk in scenario.trace[..cut].chunks(8) {
            outcomes.extend(client.tick_batch(session.key, chunk).expect("pre-drain"));
        }
        let old_primary = client.primary_of(session.key).expect("routed");
        let moved = client.drain_shard(old_primary).expect("drain");
        assert_eq!(moved, 1, "the one session on the shard must move");
        assert_ne!(client.primary_of(session.key), Some(old_primary));
        assert_eq!(
            client.failovers(),
            0,
            "a drain is planned migration, not failover"
        );
        for chunk in scenario.trace[cut..].chunks(8) {
            outcomes.extend(client.tick_batch(session.key, chunk).expect("post-drain"));
        }
        client.close_session(session.key).expect("close");
        assert_wire_identical(&seed, outcomes, reference);
        cluster.shutdown();
    }
}

#[test]
fn a_backup_that_died_with_its_primary_is_skipped() {
    // The primary dies, then one of the other two shards, before the
    // next call. When that shard was the pinned backup, its replica
    // died with it: the session is re-pinned to the survivor, which
    // restores the checkpoint and replays the log.
    let seed = SeedSpec::registry(0x0DEA_DBAC).with_len(32);
    let scenario = Scenario::from_seed(&seed);
    let spec = scenario.spec.as_ref().expect("registry scenario");
    let reference = direct_outcomes(&scenario);
    for second in 0..2 {
        let mut cluster = LocalCluster::launch(3, ServerConfig::default()).expect("launch");
        let mut client = cluster.client();
        let session = client.open_session(spec).expect("open");
        let (first, rest) = scenario.trace.split_at(BATCH);
        let mut outcomes = client.tick_batch(session.key, first).expect("first batch");
        let primary = client.primary_of(session.key).expect("routed");
        let others: Vec<u32> = cluster
            .live_shards()
            .into_iter()
            .filter(|&s| s != primary)
            .collect();
        cluster.kill(primary);
        cluster.kill(others[second]);
        for chunk in rest.chunks(BATCH) {
            outcomes.extend(client.tick_batch(session.key, chunk).expect("post-kill"));
        }
        assert_eq!(client.primary_of(session.key), Some(others[1 - second]));
        assert_eq!(client.failovers(), 1, "one rebuild, on the survivor");
        assert_wire_identical(&seed, outcomes, reference.clone());
        cluster.shutdown();
    }
}

#[test]
fn a_drain_whose_target_is_dead_leaves_the_session_live() {
    // The restore on the new owner fails, so the session must still
    // be open on the old shard: it is closed there only after a
    // successful restore.
    let seed = SeedSpec::registry(0x0D4A_1DED).with_len(32);
    let scenario = Scenario::from_seed(&seed);
    let spec = scenario.spec.as_ref().expect("registry scenario");
    let reference = direct_outcomes(&scenario);

    let mut cluster = LocalCluster::launch(3, ServerConfig::default()).expect("launch");
    let mut client = cluster.client();
    let session = client.open_session(spec).expect("open");
    let (first, rest) = scenario.trace.split_at(BATCH);
    let mut outcomes = client.tick_batch(session.key, first).expect("first batch");
    let old = client.primary_of(session.key).expect("routed");
    let target = cluster
        .ring()
        .without(old)
        .primary_for(session.key)
        .expect("two members remain");
    cluster.kill(target);
    client.drain_shard(old).expect_err("the new owner is dead");
    for chunk in rest.chunks(BATCH) {
        outcomes.extend(client.tick_batch(session.key, chunk).expect("post-drain"));
    }
    assert_eq!(client.primary_of(session.key), Some(old));
    assert_wire_identical(&seed, outcomes, reference);
    cluster.shutdown();
}

#[test]
fn failover_exhaustion_surfaces_as_no_shards() {
    // A single-shard "cluster" has no backup: killing the shard for
    // good must exhaust the in-place recovery's retries and produce a
    // loud routing error, never a hang or silent loss.
    let seed = SeedSpec::registry(7).with_len(16);
    let scenario = Scenario::from_seed(&seed);
    let spec = scenario.spec.as_ref().expect("registry scenario");
    let mut cluster = LocalCluster::launch(1, ServerConfig::default()).expect("launch");
    let policy = RetryPolicy {
        max_retries: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(5),
        seed: 7,
    };
    let mut client = ClusterClient::with_policy(cluster.ring().clone(), policy);
    let session = client.open_session(spec).expect("open");
    client
        .tick_batch(session.key, &scenario.trace[..4])
        .expect("first batch");
    cluster.kill(0);
    let err = client
        .tick_batch(session.key, &scenario.trace[4..8])
        .expect_err("no backup exists");
    assert!(
        matches!(err, awsad_cluster::ClusterError::NoShards),
        "expected NoShards, got {err:?}"
    );
    cluster.shutdown();
}
