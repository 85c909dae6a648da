//! End-to-end loopback tests for the detection service.
//!
//! The load-bearing guarantees proven here:
//!
//! * the `AdaptiveStep` stream a client receives over TCP is
//!   **byte-identical** to stepping the shared `DetectionEngine`
//!   directly on the same pinned scenario;
//! * a malformed or oversized frame increments the server's
//!   decode-error counter and kills **only** the offending connection
//!   — sessions on other connections keep ticking;
//! * protocol-level misuse (unknown session, bad model, wrong
//!   dimensions) yields typed error replies without harming the
//!   connection;
//! * shutdown joins every thread and leaves the port closed.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use awsad_core::{AdaptiveDetector, AdaptiveStep, DetectorConfig};
use awsad_models::Simulator;
use awsad_runtime::{BackpressurePolicy, DetectionEngine, EngineConfig, Tick, TickOutcome};
use awsad_serve::client::{Client, ClientError};
use awsad_serve::server::{session_parts_for_spec, tick_reply, Server, ServerConfig};
use awsad_serve::wire::{self, ErrorCode, Frame, SessionSpec, WireTick};

/// The pinned scenario: vehicle turning (Table 1 row 2) under a
/// deterministic trace that regulates for a while, then takes a bias
/// jump which must trip alarms. Pure arithmetic — no RNG — so every
/// run and every transport sees the exact same floats.
fn pinned_trace(len: usize) -> Vec<WireTick> {
    let model = Simulator::VehicleTurning.build();
    (0..len)
        .map(|t| {
            let mut estimate = model.x0.clone().into_vec();
            estimate[0] += 0.01 * ((t % 4) as f64);
            if t >= len / 2 {
                // Sensor bias attack onset halfway through.
                estimate[0] += 0.9;
            }
            WireTick {
                estimate,
                input: vec![0.0; model.system.input_dim()],
            }
        })
        .collect()
}

/// Steps the same scenario through a local engine (the PR 1 path) and
/// returns its outcome stream.
fn direct_engine_steps(trace: &[WireTick]) -> Vec<AdaptiveStep> {
    let model = Simulator::VehicleTurning.build();
    let w_m = model.default_max_window;
    let det_cfg = DetectorConfig::new(model.threshold.clone(), w_m).unwrap();
    let detector = AdaptiveDetector::new(det_cfg, model.deadline_estimator(w_m).unwrap()).unwrap();
    let logger = model.data_logger(w_m);
    let engine = DetectionEngine::new(EngineConfig::default());
    let (session, outcomes) = engine.add_session(logger, detector);
    for tick in trace {
        session
            .submit(Tick {
                estimate: awsad_linalg::Vector::from_slice(&tick.estimate),
                input: awsad_linalg::Vector::from_slice(&tick.input),
            })
            .unwrap();
    }
    engine.drain();
    outcomes.try_iter().map(|o: TickOutcome| o.step).collect()
}

#[test]
fn remote_stream_is_byte_identical_to_direct_engine() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();
    assert_eq!(session.state_dim, 1); // vehicle turning is 1-state

    let trace = pinned_trace(120);
    // Mixed call shapes: single ticks, then batches of varying size —
    // the outcome stream must be seamless across them.
    let mut remote = Vec::new();
    for tick in &trace[..5] {
        remote.push(
            client
                .tick(session.id, &tick.estimate, &tick.input)
                .unwrap(),
        );
    }
    for chunk in trace[5..].chunks(37) {
        remote.extend(client.tick_batch(session.id, chunk).unwrap());
    }
    assert_eq!(remote.len(), trace.len());

    // Seqs arrive in submission order and nothing was degraded (Block
    // policy: the server throttles instead).
    for (i, outcome) in remote.iter().enumerate() {
        assert_eq!(outcome.seq, i as u64);
        assert!(!outcome.degraded);
    }

    let direct = direct_engine_steps(&trace);
    let remote_steps: Vec<AdaptiveStep> = remote.iter().map(|o| o.to_step()).collect();
    assert_eq!(
        remote_steps, direct,
        "TCP stream must equal direct stepping"
    );

    // The attack half of the trace must actually alarm — otherwise
    // this test would vacuously compare all-quiet streams.
    assert!(
        remote.iter().any(|o| o.alarm()),
        "pinned scenario must trip at least one alarm"
    );

    client.close_session(session.id).unwrap();
    server.shutdown();
}

/// Polls until the predicate holds or the deadline passes — counter
/// updates race the test thread, never the protocol itself.
fn wait_for(mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !pred() {
        assert!(Instant::now() < deadline, "condition not reached in time");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn malformed_frame_kills_only_its_connection() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();

    // Healthy connection A with an open, ticking session.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = client
        .open_session(&SessionSpec::model_defaults(1))
        .unwrap();
    let probe = WireTick {
        estimate: vec![0.0; session.state_dim],
        input: vec![0.0; session.input_dim],
    };
    client
        .tick(session.id, &probe.estimate, &probe.input)
        .unwrap();

    let before = server.transport_metrics();

    // Hostile connection B: a well-framed payload with bad magic.
    let mut hostile = TcpStream::connect(server.local_addr()).unwrap();
    let mut payload = Frame::MetricsQuery.encode();
    payload[0] = b'X';
    hostile
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    hostile.write_all(&payload).unwrap();
    hostile.flush().unwrap();

    // The server counts the decode error and tears connection B down;
    // the teardown is visible to B as an Error frame and/or EOF.
    wait_for(|| {
        let m = server.transport_metrics();
        m.decode_errors == before.decode_errors + 1
            && m.connections_dropped == before.connections_dropped + 1
    });
    match wire::read_frame(&mut hostile, wire::DEFAULT_MAX_FRAME_LEN) {
        Ok(Frame::Error { code, message }) => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(message.contains("protocol violation"), "{message}");
            // After the error reply the stream must be closed.
            assert!(matches!(
                wire::read_frame(&mut hostile, wire::DEFAULT_MAX_FRAME_LEN),
                Err(wire::ReadFrameError::Closed)
            ));
        }
        Err(wire::ReadFrameError::Closed) => {} // reply raced the close: fine
        other => panic!("expected error reply or close, got {other:?}"),
    }

    // Connection A is untouched: its session keeps producing outcomes
    // with uninterrupted seq numbering.
    let outcome = client
        .tick(session.id, &probe.estimate, &probe.input)
        .unwrap();
    assert_eq!(outcome.seq, 1);
    server.shutdown();
}

#[test]
fn oversized_frame_is_rejected_before_allocation_and_drops_connection() {
    let config = ServerConfig {
        max_frame_len: 4096,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let before = server.transport_metrics();

    // Declare a ~4 GiB payload; the guard must fire on the prefix
    // alone (sending the bytes would take forever — none follow).
    let mut hostile = TcpStream::connect(server.local_addr()).unwrap();
    hostile.write_all(&u32::MAX.to_be_bytes()).unwrap();
    hostile.flush().unwrap();

    wait_for(|| {
        let m = server.transport_metrics();
        m.decode_errors == before.decode_errors + 1
            && m.connections_dropped == before.connections_dropped + 1
    });

    // A healthy client still gets served afterwards.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.decode_errors, before.decode_errors + 1);
    server.shutdown();
}

#[test]
fn protocol_misuse_yields_typed_errors_without_killing_the_connection() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Unknown model row.
    match client.open_session(&SessionSpec::model_defaults(9)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadModel),
        other => panic!("expected BadModel, got {other:?}"),
    }
    // Threshold of the wrong dimension.
    let mut spec = SessionSpec::model_defaults(1);
    spec.threshold = vec![0.1];
    match client.open_session(&spec) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::DimensionMismatch),
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
    // Ticking a session that was never opened.
    match client.tick(77, &[0.0], &[0.0]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    // A real session rejects wrong-dimension ticks atomically (no
    // partial submission: the next good tick still gets seq 0).
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();
    match client.tick(session.id, &[0.0, 0.0], &[0.0]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::DimensionMismatch),
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
    let good = client
        .tick(
            session.id,
            &vec![0.0; session.state_dim],
            &vec![0.0; session.input_dim],
        )
        .unwrap();
    assert_eq!(good.seq, 0);

    // The connection survived all of the above; decode errors stayed
    // at zero (misuse is not malformed framing).
    assert_eq!(client.metrics().unwrap().decode_errors, 0);
    server.shutdown();
}

#[test]
fn session_quota_is_enforced_per_connection() {
    let config = ServerConfig {
        max_sessions_per_connection: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let a = client
        .open_session(&SessionSpec::model_defaults(1))
        .unwrap();
    let _b = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();
    match client.open_session(&SessionSpec::model_defaults(3)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::SessionLimit),
        other => panic!("expected SessionLimit, got {other:?}"),
    }
    // Closing one frees a slot.
    client.close_session(a.id).unwrap();
    client
        .open_session(&SessionSpec::model_defaults(3))
        .unwrap();
    server.shutdown();
}

#[test]
fn metrics_aggregate_across_connections() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let trace = pinned_trace(30);

    let mut clients: Vec<(Client, u64)> = (0..3)
        .map(|_| {
            let mut c = Client::connect(server.local_addr()).unwrap();
            let s = c.open_session(&SessionSpec::model_defaults(2)).unwrap();
            (c, s.id)
        })
        .collect();
    for (client, session) in clients.iter_mut() {
        client.tick_batch(*session, &trace).unwrap();
    }

    let (client, _) = &mut clients[0];
    let m = client.metrics().unwrap();
    assert_eq!(m.ticks_processed, 3 * trace.len() as u64);
    assert_eq!(m.sessions_active, 3);
    assert_eq!(m.connections_opened, 3);
    assert_eq!(m.connections_dropped, 0);
    assert_eq!(m.decode_errors, 0);
    assert_eq!(m.log_latency.count, m.ticks_processed);
    assert_eq!(m.detect_latency.count, m.ticks_processed);
    assert!(m.detect_latency.mean_ns > 0.0);
    // Frames in: 3×(hello + open + batch) + this metrics query. Out:
    // every reply except the metrics reply itself, whose counter only
    // bumps after this snapshot is written.
    assert_eq!(m.frames_in, 10);
    assert_eq!(m.frames_out, 9);
    server.shutdown();
}

#[test]
fn degrade_policy_reaches_the_wire() {
    // A server running the Degrade policy with a two-tick queue: the
    // batch stands in for the queue, so of one 64-tick request exactly
    // the ticks past the first two come back flagged degraded — and
    // the flag is visible to the remote client.
    let config = ServerConfig {
        engine: EngineConfig {
            queue_capacity: 2,
            backpressure: BackpressurePolicy::Degrade,
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();
    let trace = pinned_trace(64);
    let outcomes = client.tick_batch(session.id, &trace).unwrap();
    assert_eq!(outcomes.len(), trace.len());
    let seqs: Vec<u64> = outcomes.iter().map(|o| o.seq).collect();
    assert_eq!(seqs, (0..trace.len() as u64).collect::<Vec<u64>>());
    let degraded: Vec<bool> = outcomes.iter().map(|o| o.degraded).collect();
    assert_eq!(degraded, (0..64).map(|i| i >= 2).collect::<Vec<bool>>());
    // Degraded ticks are pinned to the model's default w_m.
    let w_m = Simulator::VehicleTurning.build().default_max_window as u64;
    for o in outcomes.iter().filter(|o| o.degraded) {
        assert_eq!(o.window, w_m);
    }
    assert_eq!(client.metrics().unwrap().degraded_ticks, 64 - 2);
    server.shutdown();
}

#[test]
fn a_batch_that_comes_back_short_answers_timeout_at_once() {
    // The tick path both servers share. A panic inside the logger or
    // detector fails the session mid-batch (the engine contains it),
    // so the batch comes back short: the reply is the `Timeout` error,
    // given at once, and the next request finds the session closed.
    // Servers reject wrong-dimension ticks before stepping, so only a
    // direct call can reach the logger's dimension assert used here.
    let spec = SessionSpec::model_defaults(2);
    let (logger, detector, state_dim, input_dim) = session_parts_for_spec(&spec).unwrap();
    let engine = DetectionEngine::without_pool(EngineConfig::default());
    let (handle, _) = engine.add_session(logger, detector);
    let good = WireTick {
        estimate: vec![0.0; state_dim],
        input: vec![0.0; input_dim],
    };
    let bad = WireTick {
        estimate: vec![0.0; state_dim + 1],
        input: vec![0.0; input_dim],
    };
    let batch = vec![good.clone(), good.clone(), bad, good.clone()];
    assert_eq!(
        tick_reply(7, batch, &handle),
        Frame::Error {
            code: ErrorCode::Timeout,
            message: "engine produced 2/4 outcomes in time".into(),
        }
    );
    assert_eq!(
        tick_reply(7, vec![good], &handle),
        Frame::Error {
            code: ErrorCode::UnknownSession,
            message: "session closed under batch".into(),
        }
    );
}

#[test]
fn shutdown_closes_the_port_and_is_idempotent() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let session = client
        .open_session(&SessionSpec::model_defaults(1))
        .unwrap();
    client.tick(session.id, &[0.0, 0.0, 0.0], &[0.0]).unwrap();

    server.shutdown();
    server.shutdown(); // idempotent

    // The connection is gone: the next call fails rather than hangs.
    let res = client.tick(session.id, &[0.0, 0.0, 0.0], &[0.0]);
    assert!(res.is_err(), "call after shutdown must fail, got {res:?}");
    // And the port no longer accepts (allow the OS a moment to tear
    // down the listener backlog).
    wait_for(|| {
        TcpStream::connect(addr).is_err() || {
            // A connect may still succeed against TIME_WAIT artifacts on
            // some kernels; what matters is that no server answers.
            let mut probe = TcpStream::connect(addr).unwrap();
            probe
                .set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let _ = wire::write_frame(&mut probe, &Frame::MetricsQuery);
            wire::read_frame(&mut probe, wire::DEFAULT_MAX_FRAME_LEN).is_err()
        }
    });
}
