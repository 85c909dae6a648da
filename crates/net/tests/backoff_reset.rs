//! Regression test: a successful in-place recovery must reset the
//! decorrelated-jitter backoff state to the base delay.
//!
//! The bug: the floor was reset only when a recovery succeeded inside
//! the same call. An outage that exhausted its retries surfaced its
//! error with the delay still inflated (up to `max_delay`), so the
//! *next* outage — possibly hours later — started its first backoff
//! from the previous outage's ceiling instead of `base_delay`.

use std::time::Duration;

use awsad_cluster::{ClusterClient, ClusterError, HashRing, RetryPolicy};
use awsad_net::{NetServer, NetServerConfig};
use awsad_serve::wire::{RingMember, SessionSpec};

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

    // A one-member ring: the shard has no successor, so its sessions
    // recover in place.
    let member = RingMember {
        shard: 0,
        addr: addr.to_string(),
    };
    let mut client = ClusterClient::with_policy(HashRing::new(1, vec![member]), policy.clone());
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();
    client.tick(session.key, &[0.0], &[0.0]).unwrap();
    assert_eq!(client.current_backoff_floor(), policy.base_delay);

    // Kill the server for good and run the outage to retry
    // exhaustion a few times, compounding the backoff delay.
    server.shutdown();
    drop(server);
    for _ in 0..4 {
        let err = client
            .tick(session.key, &[0.0], &[0.0])
            .expect_err("no server is listening");
        assert!(matches!(err, ClusterError::NoShards), "got {err:?}");
    }
    assert!(
        client.current_backoff_floor() > policy.base_delay,
        "the exhausted outage must have inflated the jitter state \
         (floor {:?})",
        client.current_backoff_floor()
    );

    // Server comes back on the same address; the next call recovers,
    // restores the session from its checkpoint, and succeeds — which
    // must snap the jitter state back to the base delay so a future
    // outage does not inherit this one's inflation.
    let server = NetServer::bind(addr, NetServerConfig::default()).unwrap();
    client.tick(session.key, &[0.0], &[0.0]).unwrap();
    assert_eq!(client.recoveries().restored, 1);
    assert_eq!(client.current_backoff_floor(), policy.base_delay);
    server.shutdown();
}
