//! Regression test: a successful call must reset the
//! decorrelated-jitter backoff state to the base delay.
//!
//! The bug: `recover()` only reset the jitter state on a *successful*
//! recovery. An outage that exhausted its retries surfaced its error
//! with the delay still inflated (up to `max_delay`), so the *next*
//! outage — possibly hours later, after any number of successful
//! calls — started its first backoff from the previous outage's
//! ceiling instead of `base_delay`.

use std::time::Duration;

use awsad_net::{NetServer, NetServerConfig};
use awsad_serve::reconnect::{ReconnectingClient, RetryPolicy};
use awsad_serve::wire::SessionSpec;

#[test]
fn successful_call_resets_backoff_to_base_delay() {
    let policy = RetryPolicy {
        max_retries: 2,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(30),
        seed: 7,
    };
    let server = NetServer::bind("127.0.0.1:0", NetServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut rc = ReconnectingClient::connect(addr, policy.clone()).unwrap();
    let session = rc.open_session(&SessionSpec::model_defaults(2)).unwrap();
    rc.tick(session.id, &[0.0], &[0.0]).unwrap();
    assert_eq!(rc.current_backoff_floor(), policy.base_delay);

    // Kill the server for good and run the outage to retry
    // exhaustion a few times, compounding the backoff delay.
    server.shutdown();
    drop(server);
    for _ in 0..4 {
        rc.tick(session.id, &[0.0], &[0.0])
            .expect_err("no server is listening");
    }
    assert!(
        rc.current_backoff_floor() > policy.base_delay,
        "the exhausted outage must have inflated the jitter state \
         (floor {:?})",
        rc.current_backoff_floor()
    );

    // Server comes back on the same address; the next call recovers,
    // restores the session from its checkpoint, and succeeds — which
    // must snap the jitter state back to the base delay so a future
    // outage does not inherit this one's inflation.
    let server = NetServer::bind(addr, NetServerConfig::default()).unwrap();
    rc.tick(session.id, &[0.0], &[0.0]).unwrap();
    assert!(rc.reconnects() >= 1);
    assert_eq!(rc.current_backoff_floor(), policy.base_delay);
    server.shutdown();
}
