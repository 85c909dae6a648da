//! Chaos tests: deterministic transport-fault injection against the
//! server.
//!
//! The load-bearing guarantees proven here:
//!
//! * truncated-mid-frame and dropped replies are survived: a
//!   `ClusterClient` over a one-member ring restores the session from
//!   its checkpoint in place, replays its tick log, and the resumed
//!   `AdaptiveStep` stream is byte-identical to an uninterrupted
//!   direct-engine run of the same bias attack;
//! * a reply arriving after the client's reply timeout can never be
//!   misattributed to the next call (the legacy call pattern
//!   demonstrably misattributes it; the client poisons itself
//!   instead);
//! * a slow-loris peer ties up only its own connection and only until
//!   the server's frame deadline — asserted on transport counters,
//!   not wall-clock.

mod support;

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use awsad_cluster::{ClusterClient, HashRing, RetryPolicy};
use awsad_core::AdaptiveStep;
use awsad_net::{NetServer, NetServerConfig};
use awsad_serve::client::{Client, ClientError};
use awsad_serve::wire::{self, Frame, RingMember, SessionSpec, WireOutcome};
use awsad_testkit::proxy::{FaultPlan, FaultProxy, ReplyFault};

use support::{direct_engine_steps, pinned_trace, wait_for};

fn bind() -> NetServer {
    NetServer::bind("127.0.0.1:0", NetServerConfig::default()).unwrap()
}

/// A fast retry policy for tests: deterministic seed, short delays.
fn test_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 40,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(100),
        seed: 7,
    }
}

fn assert_stream_matches(outcomes: &[WireOutcome], trace_len: usize, direct: &[AdaptiveStep]) {
    assert_eq!(outcomes.len(), trace_len);
    // Seq numbering must be continuous across every reconnect/resume.
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.seq, i as u64, "seq discontinuity at {i}");
        assert!(!o.degraded);
    }
    let steps: Vec<AdaptiveStep> = outcomes.iter().map(|o| o.to_step()).collect();
    assert_eq!(steps, *direct, "resumed stream must equal direct stepping");
    // The attack half must actually alarm, or the comparison is
    // vacuously all-quiet.
    assert!(
        outcomes.iter().any(|o| o.alarm()),
        "pinned scenario must trip at least one alarm"
    );
}

#[test]
fn truncated_and_dropped_replies_are_survived_byte_identically() {
    let server = bind();
    // Connection 1: hello, open, the open-time checkpoint and batch 1
    // forwarded, then batch 1's checkpoint (always taken: the open-time
    // one has no payload) is cut mid-frame (6 bytes = prefix + 2 bytes
    // of body); batch 1 is delivered and the session pinned.
    // Connection 2, at batch 2: hello, restore, the batch-1 replay and
    // batch 2 forwarded, then batch 2's checkpoint (due: the log holds
    // 80 ticks) is swallowed whole. Connection 3, at batch 3, restores
    // the open-time checkpoint again, replays both batches and runs
    // clean.
    let proxy = FaultProxy::start(
        server.local_addr(),
        vec![
            FaultPlan::after(4, ReplyFault::Truncate(6)),
            FaultPlan::after(4, ReplyFault::Drop),
        ],
    );

    let member = RingMember {
        shard: 0,
        addr: proxy.addr().to_string(),
    };
    let mut client = ClusterClient::with_policy(HashRing::new(1, vec![member]), test_policy());
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();

    let trace = pinned_trace(120);
    let mut outcomes = Vec::new();
    for chunk in trace.chunks(40) {
        outcomes.extend(client.tick_batch(session.key, chunk).unwrap());
    }

    assert_eq!(
        client.recoveries().restored,
        2,
        "one in-place restore per injected fault"
    );
    assert_stream_matches(&outcomes, trace.len(), &direct_engine_steps(&trace));
    drop(proxy);
    server.shutdown();
}

#[test]
fn late_reply_after_timeout_poisons_instead_of_misattributing() {
    let server = bind();
    let trace = pinned_trace(4);

    // Part 1 — the regression, demonstrated with the legacy call
    // pattern (write a frame, read *whatever frame comes next*): after
    // a timed-out tick, the delayed reply is delivered as the answer
    // to the following metrics call. This is the bug.
    let proxy = FaultProxy::start(
        server.local_addr(),
        vec![
            // Reply 0 (open) forwarded; reply 1 (tick outcomes)
            // delayed past the client timeout, then delivered late.
            FaultPlan {
                replies: vec![
                    ReplyFault::Forward,
                    ReplyFault::Delay(Duration::from_millis(400)),
                ],
            },
            // Connection for part 2: same delay on the tick reply.
            FaultPlan {
                replies: vec![
                    ReplyFault::Forward,
                    ReplyFault::Forward,
                    ReplyFault::Delay(Duration::from_millis(400)),
                ],
            },
        ],
    );

    let mut legacy = TcpStream::connect(proxy.addr()).unwrap();
    wire::write_frame(
        &mut legacy,
        &Frame::OpenSession(SessionSpec::model_defaults(2)),
    )
    .unwrap();
    let Frame::SessionOpened { session, .. } =
        wire::read_frame(&mut legacy, wire::DEFAULT_MAX_FRAME_LEN).unwrap()
    else {
        panic!("expected SessionOpened");
    };
    wire::write_frame(
        &mut legacy,
        &Frame::Tick {
            session,
            ticks: vec![trace[0].clone()],
        },
    )
    .unwrap();
    legacy
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    // The tick reply is 400 ms out; this read times out first.
    assert!(matches!(
        wire::read_frame(&mut legacy, wire::DEFAULT_MAX_FRAME_LEN),
        Err(wire::ReadFrameError::Io(_))
    ));
    // Legacy pattern: shrug, issue the next request, read the next
    // frame. The late TickOutcomes is sitting in the socket by now —
    // and gets returned as the "answer" to MetricsQuery.
    legacy.set_read_timeout(None).unwrap();
    wire::write_frame(&mut legacy, &Frame::MetricsQuery).unwrap();
    match wire::read_frame(&mut legacy, wire::DEFAULT_MAX_FRAME_LEN).unwrap() {
        Frame::TickOutcomes { .. } => {} // the misattribution, observed
        other => panic!("expected the stale TickOutcomes, got {other:?}"),
    }

    // Part 2 — the fixed client on the same fault: the timeout
    // poisons it, and no later call ever reads the stale frame.
    let mut client = Client::connect(proxy.addr()).unwrap();
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();
    client
        .set_reply_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    match client.tick(session.id, &trace[0].estimate, &trace[0].input) {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected a timeout Io error, got {other:?}"),
    }
    assert!(client.is_poisoned());
    // Give the delayed reply time to arrive in the socket buffer,
    // exactly as in part 1 — then prove the client refuses to touch it.
    std::thread::sleep(Duration::from_millis(500));
    match client.metrics() {
        Err(ClientError::Poisoned { .. }) => {}
        other => panic!("poisoned client must refuse calls, got {other:?}"),
    }

    drop(proxy);
    server.shutdown();
}

#[test]
fn slow_loris_ties_up_only_its_own_connection_for_a_bounded_time() {
    let mut config = NetServerConfig::default();
    config.base.frame_deadline = Duration::from_millis(200);
    let server = NetServer::bind("127.0.0.1:0", config).unwrap();

    // The attacker: sends two bytes of a length prefix, then stalls.
    let mut loris = TcpStream::connect(server.local_addr()).unwrap();
    loris.write_all(&[0x00, 0x00]).unwrap();
    loris.flush().unwrap();

    // A healthy client on its own connection is entirely unaffected
    // while the attacker is stalling.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();
    for tick in pinned_trace(10) {
        client
            .tick(session.id, &tick.estimate, &tick.input)
            .unwrap();
    }

    // Counter-based bound: the server drops the stalled connection
    // once the frame deadline lapses. No decode error — the bytes
    // were not malformed, just never finished.
    wait_for(|| server.transport_metrics().connections_dropped >= 1);
    let m = server.transport_metrics();
    assert_eq!(m.connections_dropped, 1);
    assert_eq!(m.decode_errors, 0);

    // The healthy connection is still live after the teardown.
    let outcome = client.tick(session.id, &[0.0], &[0.0]).unwrap();
    assert_eq!(outcome.seq, 10);
    server.shutdown();
}
