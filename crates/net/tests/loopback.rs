//! End-to-end loopback tests for the server.
//!
//! The load-bearing guarantees proven here:
//!
//! * the `AdaptiveStep` stream a client receives from [`NetServer`]
//!   is **byte-identical** to stepping a local `DetectionEngine` on
//!   the same pinned scenario — on both poller backends;
//! * the blocking `awsad_serve` client and a one-member-ring
//!   `awsad_cluster::ClusterClient` drive the server, including
//!   snapshot/restore across a kill-and-restart, and each of the
//!   router's sessions recovers in place on its own next call;
//! * frames torn across arbitrarily many wakeups decode to the same
//!   replies as whole frames, and the resumes are counted;
//! * pipelined requests answer strictly in order with correlation
//!   ids echoed;
//! * a malformed or oversized frame increments the decode-error
//!   counter and kills **only** the offending connection;
//! * protocol errors, session quotas, TTL eviction, and shutdown
//!   behave as specified.

mod support;

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use awsad_cluster::{ClusterClient, ClusterError, HashRing, Recoveries, RetryPolicy};
use awsad_core::AdaptiveStep;
use awsad_models::Simulator;
use awsad_net::{NetServer, NetServerConfig};
use awsad_runtime::{BackpressurePolicy, EngineConfig};
use awsad_serve::client::{Client, ClientError};
use awsad_serve::server::{session_parts_for_spec, ServerConfig};
use awsad_serve::wire::{
    read_envelope, write_frame_corr, ErrorCode, Frame, RingMember, SessionSpec, WireOutcome,
    DEFAULT_MAX_FRAME_LEN,
};

use support::{direct_engine_steps, pinned_trace, wait_for};

fn two_shard_config() -> NetServerConfig {
    NetServerConfig {
        shards: 2,
        ..NetServerConfig::default()
    }
}

#[test]
fn remote_stream_is_byte_identical_on_both_backends() {
    for force_poll in [false, true] {
        let config = NetServerConfig {
            force_poll,
            ..two_shard_config()
        };
        let server = NetServer::bind("127.0.0.1:0", config).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let session = client
            .open_session(&SessionSpec::model_defaults(2))
            .unwrap();
        assert_eq!(session.state_dim, 1);

        let trace = pinned_trace(120);
        let mut outcomes = Vec::with_capacity(trace.len());
        for chunk in trace.chunks(10) {
            outcomes.extend(client.tick_batch(session.id, chunk).unwrap());
        }
        let steps: Vec<AdaptiveStep> = outcomes.iter().map(|o| o.to_step()).collect();
        assert_eq!(
            steps,
            direct_engine_steps(&trace),
            "backend force_poll={force_poll}: remote stream must equal direct stepping"
        );
        assert!(
            outcomes.iter().any(|o| o.alarm()),
            "pinned scenario must trip at least one alarm"
        );
        client.close_session(session.id).unwrap();
        server.shutdown();
    }
}

#[test]
fn pipelined_requests_answer_in_order_with_corr_echo() {
    let server = NetServer::bind("127.0.0.1:0", two_shard_config()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Open a session first (one round trip so we know its id).
    write_frame_corr(
        &mut stream,
        &Frame::OpenSession(SessionSpec::model_defaults(2)),
        Some(1),
    )
    .unwrap();
    let env = read_envelope(&mut stream, DEFAULT_MAX_FRAME_LEN).unwrap();
    assert_eq!(env.corr, Some(1));
    let Frame::SessionOpened { session, .. } = env.frame else {
        panic!("expected SessionOpened, got {:?}", env.frame);
    };

    // Now pipeline a burst without reading a single reply: ticks
    // interleaved with other request kinds, each with its own corr.
    let trace = pinned_trace(8);
    for (i, tick) in trace.iter().enumerate() {
        write_frame_corr(
            &mut stream,
            &Frame::Tick {
                session,
                ticks: vec![tick.clone()],
            },
            Some(100 + i as u64),
        )
        .unwrap();
        write_frame_corr(&mut stream, &Frame::MetricsQuery, Some(200 + i as u64)).unwrap();
    }
    stream.flush().unwrap();

    // Replies must come back strictly in request order, corr echoed.
    for i in 0..trace.len() as u64 {
        let env = read_envelope(&mut stream, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(env.corr, Some(100 + i), "tick reply out of order");
        let Frame::TickOutcomes { outcomes, .. } = env.frame else {
            panic!("expected TickOutcomes, got {:?}", env.frame);
        };
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].seq, i, "outcome stream desynchronized");
        let env = read_envelope(&mut stream, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(env.corr, Some(200 + i), "metrics reply out of order");
        assert!(matches!(env.frame, Frame::MetricsReply(_)));
    }
    server.shutdown();
}

#[test]
fn torn_frames_resume_mid_frame_and_are_counted() {
    let server = NetServer::bind("127.0.0.1:0", two_shard_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();

    // A second, raw connection drips one frame a few bytes at a time
    // with real pauses, so the shard observes many wakeups per frame.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let hello = Frame::Hello {
        client: "torn byte dripper".into(),
    };
    let payload = hello.encode_with_corr(Some(42));
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&payload);
    for chunk in bytes.chunks(3) {
        raw.write_all(chunk).unwrap();
        raw.flush().unwrap();
        std::thread::sleep(Duration::from_millis(4));
    }
    let env = read_envelope(&mut raw, DEFAULT_MAX_FRAME_LEN).unwrap();
    assert_eq!(env.corr, Some(42));
    assert!(matches!(env.frame, Frame::HelloAck { .. }));

    // The torn frame was completed by mid-frame resume, and the
    // metrics reply counts it beside the shard count.
    assert!(server.partial_frame_resumes() >= 1);
    let wm = client.metrics().unwrap();
    assert_eq!(wm.counter("shards"), Some(2));
    assert!(wm.counter("partial_frame_resumes").unwrap() >= 1);

    // The dripping never perturbed the well-behaved connection.
    let outcome = client
        .tick(session.id, &pinned_trace(1)[0].estimate, &[0.0])
        .unwrap();
    assert_eq!(outcome.seq, 0);
    server.shutdown();
}

#[test]
fn malformed_frame_kills_only_its_connection() {
    let server = NetServer::bind("127.0.0.1:0", two_shard_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();

    // Garbage with a plausible length prefix on a second connection.
    let mut evil = TcpStream::connect(server.local_addr()).unwrap();
    let garbage = [0u8, 0, 0, 8, 0xde, 0xad, 0xbe, 0xef, 0x00, 0x11, 0x22, 0x33];
    evil.write_all(&garbage).unwrap();
    // The server answers with a typed error frame, then closes.
    let env = read_envelope(&mut evil, DEFAULT_MAX_FRAME_LEN).unwrap();
    let Frame::Error { code, message } = env.frame else {
        panic!("expected Error, got {:?}", env.frame);
    };
    assert_eq!(code, ErrorCode::Internal);
    assert!(message.starts_with("protocol violation, closing connection:"));
    wait_for(|| {
        let t = server.transport_metrics();
        t.decode_errors == 1 && t.connections_dropped == 1
    });

    // The honest connection is untouched.
    let outcome = client
        .tick(session.id, &pinned_trace(1)[0].estimate, &[0.0])
        .unwrap();
    assert_eq!(outcome.seq, 0);
    server.shutdown();
}

#[test]
fn oversized_frame_is_rejected_before_allocation_and_drops_connection() {
    let mut config = two_shard_config();
    config.base.max_frame_len = 4096;
    let server = NetServer::bind("127.0.0.1:0", config).unwrap();

    // Declare a ~4 GiB payload; the guard must fire on the prefix
    // alone (sending the bytes would take forever — none follow).
    let mut hostile = TcpStream::connect(server.local_addr()).unwrap();
    hostile.write_all(&u32::MAX.to_be_bytes()).unwrap();
    hostile.flush().unwrap();

    wait_for(|| {
        let t = server.transport_metrics();
        t.decode_errors == 1 && t.connections_dropped == 1
    });
    // The connection gets the typed error, then EOF.
    let env = read_envelope(&mut hostile, DEFAULT_MAX_FRAME_LEN).unwrap();
    let Frame::Error { code, message } = env.frame else {
        panic!("expected Error, got {:?}", env.frame);
    };
    assert_eq!(code, ErrorCode::Internal);
    assert!(message.contains("exceeds"), "{message}");

    // A healthy client still gets served afterwards.
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.metrics().unwrap().counter("decode_errors"), Some(1));
    server.shutdown();
}

#[test]
fn protocol_misuse_yields_typed_errors_without_killing_the_connection() {
    let server = NetServer::bind("127.0.0.1:0", two_shard_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    match client.open_session(&SessionSpec::model_defaults(9)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadModel),
        other => panic!("expected BadModel, got {other:?}"),
    }
    let mut spec = SessionSpec::model_defaults(1);
    spec.threshold = vec![0.1];
    match client.open_session(&spec) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::DimensionMismatch),
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
    match client.tick(123_456, &[0.0], &[0.0]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();
    match client.tick(session.id, &[0.0, 0.0, 0.0, 0.0], &[0.0]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::DimensionMismatch),
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
    // The connection survived all of it.
    let outcome = client
        .tick(session.id, &pinned_trace(1)[0].estimate, &[0.0])
        .unwrap();
    assert_eq!(outcome.seq, 0);

    // Another connection cannot see this connection's session.
    let mut other = Client::connect(server.local_addr()).unwrap();
    match other.tick(session.id, &pinned_trace(1)[0].estimate, &[0.0]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    // Misuse is not malformed framing.
    assert_eq!(client.metrics().unwrap().counter("decode_errors"), Some(0));
    server.shutdown();
}

#[test]
fn output_rows_without_a_map_are_refused_over_the_wire() {
    // The spec crosses the wire whole, so the server refuses exactly
    // what the local construction refuses.
    let spec = SessionSpec::model_defaults(2).with_output_map(2, vec![]);
    let Err((code, _)) = session_parts_for_spec(&spec) else {
        panic!("a row count without a map must be refused locally");
    };
    assert_eq!(code, ErrorCode::DimensionMismatch);
    let server = NetServer::bind("127.0.0.1:0", two_shard_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.open_session(&spec) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::DimensionMismatch),
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn session_quota_is_enforced_per_connection() {
    let mut config = two_shard_config();
    config.base.max_sessions_per_connection = 2;
    let server = NetServer::bind("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let spec = SessionSpec::model_defaults(2);
    let a = client.open_session(&spec).unwrap();
    let _b = client.open_session(&spec).unwrap();
    match client.open_session(&spec) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::SessionLimit),
        other => panic!("expected SessionLimit, got {other:?}"),
    }
    // Closing one frees quota.
    client.close_session(a.id).unwrap();
    client.open_session(&spec).unwrap();
    server.shutdown();
}

#[test]
fn idle_sessions_are_evicted_by_ttl() {
    let mut config = two_shard_config();
    config.base.session_ttl = Some(Duration::from_millis(60));
    let server = NetServer::bind("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();
    wait_for(|| server.transport_metrics().sessions_evicted == 1);
    assert_eq!(server.engine_metrics().sessions_active, 0);
    // The eviction is indistinguishable from a close: next use gets
    // UnknownSession, the connection itself is untouched.
    match client.tick(session.id, &pinned_trace(1)[0].estimate, &[0.0]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected UnknownSession after eviction, got {other:?}"),
    }
    let replacement = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();
    client
        .tick(replacement.id, &pinned_trace(1)[0].estimate, &[0.0])
        .unwrap();
    server.shutdown();
}

#[test]
fn snapshot_restore_resumes_byte_identically() {
    let server = NetServer::bind("127.0.0.1:0", two_shard_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let spec = SessionSpec::model_defaults(2);
    let trace = pinned_trace(120);

    let session = client.open_session(&spec).unwrap();
    let mut outcomes = Vec::new();
    for tick in &trace[..60] {
        outcomes.push(
            client
                .tick(session.id, &tick.estimate, &tick.input)
                .unwrap(),
        );
    }
    let state = client.snapshot_session(session.id).unwrap();
    client.close_session(session.id).unwrap();

    let resumed = client.restore_session(&spec, &state).unwrap();
    assert_ne!(resumed.id, session.id, "restore allocates a fresh id");
    for tick in &trace[60..] {
        outcomes.push(
            client
                .tick(resumed.id, &tick.estimate, &tick.input)
                .unwrap(),
        );
    }
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.seq, i as u64, "seq discontinuity at {i}");
    }
    let steps: Vec<AdaptiveStep> = outcomes.iter().map(|o| o.to_step()).collect();
    assert_eq!(steps, direct_engine_steps(&trace));

    // A corrupt snapshot is rejected with the typed error, not a hung
    // or poisoned connection.
    let mut bad = state.clone();
    bad.reestimation_period = 0;
    match client.restore_session(&spec, &bad) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadSnapshot),
        other => panic!("expected BadSnapshot, got {other:?}"),
    }
    assert!(!client.is_poisoned());
    server.shutdown();
}

/// Non-finite, overflowing, subnormal and signed-zero values, as in
/// `crates/core/tests/hostile_numbers.rs`.
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
fn hostile_numbers_cross_tick_frames_and_a_snapshot_round_trip() {
    // Each hostile value once as an estimate and once as an input,
    // between the pinned trace's ordinary ticks, on a cached session.
    // The stream through `Tick`/`TickOutcomes` frames, cut by a
    // `SnapshotSession`/`RestoreSession` round trip while the retained
    // window holds hostile entries, equals direct stepping.
    let spec = SessionSpec {
        cache_capacity: 32,
        ..SessionSpec::model_defaults(2)
    };
    let mut trace = pinned_trace(100);
    for (i, &v) in HOSTILE.iter().enumerate() {
        trace[3 + 11 * i].estimate[0] = v;
        trace[8 + 11 * i].input[0] = v;
    }
    let (mut logger, mut detector, _, _) =
        awsad_serve::server::session_parts_for_spec(&spec).unwrap();
    let want: Vec<AdaptiveStep> = trace
        .iter()
        .map(|t| {
            logger.record(
                awsad_linalg::Vector::from_slice(&t.estimate),
                awsad_linalg::Vector::from_slice(&t.input),
            );
            detector.step(&logger)
        })
        .collect();

    let server = NetServer::bind("127.0.0.1:0", two_shard_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Right after the NaN input and the ±∞ estimates.
    let cut = 8 + 11 * 2 + 1;
    let session = client.open_session(&spec).unwrap();
    let mut outcomes = Vec::new();
    for request in trace[..cut].chunks(7) {
        outcomes.extend(client.tick_batch(session.id, request).unwrap());
    }
    let state = client.snapshot_session(session.id).unwrap();
    client.close_session(session.id).unwrap();
    let resumed = client.restore_session(&spec, &state).unwrap();
    for request in trace[cut..].chunks(7) {
        outcomes.extend(client.tick_batch(resumed.id, request).unwrap());
    }
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.seq, i as u64, "seq discontinuity at {i}");
    }
    let got: Vec<AdaptiveStep> = outcomes.iter().map(|o| o.to_step()).collect();
    assert_eq!(got, want);
    assert!(
        got.iter().any(|step| step.alarm()),
        "a non-finite residual must alarm"
    );
    server.shutdown();
}

/// A router over a one-member ring on `addr`: the member has no
/// successor, so its sessions recover in place.
fn one_member_client(addr: std::net::SocketAddr, policy: RetryPolicy) -> ClusterClient {
    let member = RingMember {
        shard: 0,
        addr: addr.to_string(),
    };
    ClusterClient::with_policy(HashRing::new(1, vec![member]), policy)
}

fn assert_resumed_stream(outcomes: &[WireOutcome], want: &[AdaptiveStep]) {
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.seq, i as u64, "seq discontinuity at {i}");
    }
    let steps: Vec<AdaptiveStep> = outcomes.iter().map(|o| o.to_step()).collect();
    assert_eq!(steps, want);
}

#[test]
fn reconnecting_client_survives_net_server_kill_and_restart() {
    let config = two_shard_config();
    let server = NetServer::bind("127.0.0.1:0", config.clone()).unwrap();
    let addr = server.local_addr();

    let policy = RetryPolicy {
        max_retries: 40,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(100),
        seed: 7,
    };
    let mut client = one_member_client(addr, policy);
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();

    let trace = pinned_trace(120);
    let mut outcomes = Vec::new();
    let mut server = Some(server);
    for (i, chunk) in trace.chunks(10).enumerate() {
        if i == 6 {
            let old = server.take().unwrap();
            old.shutdown();
            drop(old);
            server = Some(NetServer::bind(addr, config.clone()).unwrap());
        }
        outcomes.extend(client.tick_batch(session.key, chunk).unwrap());
    }
    assert!(
        client.recoveries().restored >= 1,
        "the kill must force an in-place restore"
    );
    assert_resumed_stream(&outcomes, &direct_engine_steps(&trace));
    server.unwrap().shutdown();
}

#[test]
fn sessions_on_a_one_member_ring_each_recover_on_their_own_next_call() {
    let config = two_shard_config();
    let server = NetServer::bind("127.0.0.1:0", config.clone()).unwrap();
    let addr = server.local_addr();
    let policy = RetryPolicy {
        max_retries: 3,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(10),
        seed: 7,
    };
    let mut client = one_member_client(addr, policy);
    let spec = SessionSpec::model_defaults(2);
    let keys = [0, 1].map(|_| client.open_session(&spec).unwrap().key);
    let restored = |n| Recoveries {
        restored: n,
        ..Recoveries::default()
    };

    let trace = pinned_trace(120);
    let mut streams = [Vec::new(), Vec::new()];
    let mut server = Some(server);
    for (i, chunk) in trace.chunks(10).enumerate() {
        if i == 5 {
            // Both sessions lose their server-side state at once.
            let old = server.take().unwrap();
            old.shutdown();
            drop(old);
            server = Some(NetServer::bind(addr, config.clone()).unwrap());
        }
        for (s, (key, stream)) in keys.iter().zip(&mut streams).enumerate() {
            stream.extend(client.tick_batch(*key, chunk).unwrap());
            if i == 5 {
                // The first session's failed call pinned both; each
                // is restored by its own call, not at reconnect.
                assert_eq!(client.recoveries(), restored(s as u64 + 1));
            }
        }
    }
    assert_eq!(client.recoveries(), restored(2));
    let want = direct_engine_steps(&trace);
    for stream in &streams {
        assert_resumed_stream(stream, &want);
    }

    // Kill the server for good: the next call exhausts its retries and
    // leaves both routes pinned, and closing a pinned route needs no
    // round trip.
    server.unwrap().shutdown();
    let err = client
        .tick_batch(keys[0], &trace[..1])
        .expect_err("no server is listening");
    assert!(matches!(err, ClusterError::NoShards), "got {err:?}");
    for key in keys {
        client.close_session(key).unwrap();
    }
    assert_eq!(client.recoveries(), restored(2));
}

#[test]
fn metrics_merge_aggregates_sessions_across_connections() {
    let server = NetServer::bind("127.0.0.1:0", two_shard_config()).unwrap();
    let spec = SessionSpec::model_defaults(2);
    let tick = &pinned_trace(1)[0];

    let mut clients: Vec<Client> = (0..3)
        .map(|_| Client::connect(server.local_addr()).unwrap())
        .collect();
    let mut total_ticks = 0u64;
    for (i, c) in clients.iter_mut().enumerate() {
        let s = c.open_session(&spec).unwrap();
        for _ in 0..=i {
            c.tick(s.id, &tick.estimate, &tick.input).unwrap();
            total_ticks += 1;
        }
    }
    // 1+2+3 ticks across three connections; the merged engine view
    // must account every one, whichever shard served it.
    let wm = clients[0].metrics().unwrap();
    assert_eq!(wm.counter("shards"), Some(2));
    assert_eq!(wm.counter("sessions_active"), Some(3));
    assert_eq!(wm.counter("ticks_submitted"), Some(total_ticks));
    assert_eq!(wm.counter("ticks_processed"), Some(total_ticks));
    assert_eq!(wm.latency("log").unwrap().count, total_ticks);
    let detect = wm.latency("detect").unwrap();
    assert_eq!(detect.count, total_ticks);
    assert!(detect.mean_ns > 0.0);
    assert_eq!(server.engine_metrics().ticks_processed, total_ticks);
    // frames: per client: 1 hello + 1 open + ticks + 1 metrics query.
    let t = server.transport_metrics();
    assert_eq!(t.connections_opened, 3);
    assert_eq!(t.decode_errors, 0);
    assert_eq!(t.connections_dropped, 0);
    assert_eq!(t.frames_in, 3 + 3 + total_ticks + 1);
    assert_eq!(t.frames_out, t.frames_in);
    server.shutdown();
}

#[test]
fn empty_tick_batch_answers_immediately() {
    let server = NetServer::bind("127.0.0.1:0", two_shard_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();
    let outcomes = client.tick_batch(session.id, &[]).unwrap();
    assert!(outcomes.is_empty());
    // The connection still works afterwards.
    let outcome = client
        .tick(session.id, &pinned_trace(1)[0].estimate, &[0.0])
        .unwrap();
    assert_eq!(outcome.seq, 0);
    server.shutdown();
}

#[test]
fn degrade_policy_reaches_the_wire() {
    // A request is stepped where it was read, the batch stands in for
    // the session queue, and of one 64-tick request exactly the ticks
    // past the two-tick capacity come back degraded, in seq order —
    // and the flag is visible to the remote client.
    let config = NetServerConfig {
        base: ServerConfig {
            engine: EngineConfig {
                queue_capacity: 2,
                backpressure: BackpressurePolicy::Degrade,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        },
        ..two_shard_config()
    };
    let server = NetServer::bind("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();
    let trace = pinned_trace(64);
    let outcomes = client.tick_batch(session.id, &trace).unwrap();
    let seqs: Vec<u64> = outcomes.iter().map(|o| o.seq).collect();
    assert_eq!(seqs, (0..64).collect::<Vec<u64>>());
    let degraded: Vec<bool> = outcomes.iter().map(|o| o.degraded).collect();
    assert_eq!(degraded, (0..64).map(|i| i >= 2).collect::<Vec<bool>>());
    let w_m = Simulator::VehicleTurning.build().default_max_window as u64;
    for o in outcomes.iter().filter(|o| o.degraded) {
        assert_eq!(o.window, w_m);
    }
    assert_eq!(
        client.metrics().unwrap().counter("degraded_ticks"),
        Some(64 - 2)
    );
    server.shutdown();
}

#[test]
fn clean_close_is_not_a_drop_and_shutdown_is_idempotent() {
    let server = NetServer::bind("127.0.0.1:0", two_shard_config()).unwrap();
    let mut survivor = Client::connect(server.local_addr()).unwrap();
    let kept = survivor
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();
    {
        let mut client = Client::connect(server.local_addr()).unwrap();
        let session = client
            .open_session(&SessionSpec::model_defaults(2))
            .unwrap();
        client.close_session(session.id).unwrap();
    } // drops the client: clean EOF at a frame boundary
    wait_for(|| server.transport_metrics().connections_opened == 2);
    // Give the shard a beat to observe the close, then check it was
    // not misclassified as a drop.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(server.transport_metrics().connections_dropped, 0);
    server.shutdown();
    server.shutdown(); // idempotent
                       // A connection still open at shutdown is gone: its next call
                       // fails rather than hangs.
    let res = survivor.tick(kept.id, &pinned_trace(1)[0].estimate, &[0.0]);
    assert!(res.is_err(), "call after shutdown must fail, got {res:?}");
    assert!(
        TcpStream::connect(server.local_addr()).is_err()
            || TcpStream::connect(server.local_addr()).is_err(),
        "port should stop accepting after shutdown"
    );
}
