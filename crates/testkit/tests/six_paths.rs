//! Torn frames on the server's incremental decoder: requests split
//! into 1–7 byte chunks and interleaved across connections that share
//! one event-loop shard.

use awsad_net::{NetServer, NetServerConfig};
use awsad_testkit::scenario::{Scenario, SeedSpec};
use awsad_testkit::wirefuzz;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Torn frames interleaved across connections sharing one shard: the
/// fuzz bin runs this continuously; here a fixed handful of seeds pin
/// it into the tier-1 suite. A single-shard server guarantees all
/// three connections (two honest, one hostile) decode on the same
/// event loop.
#[test]
fn torn_interleaved_frames_never_leak_between_connections() {
    let net_server = NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig {
            shards: 1,
            ..NetServerConfig::default()
        },
    )
    .expect("bind net server");
    let net_addr = net_server.local_addr();
    let mut rng = StdRng::seed_from_u64(0x70E1_5EED);
    for round in 0..6 {
        let seed = SeedSpec::registry(rng.random_range(0..=u64::MAX)).with_len(48);
        let scenario = Scenario::from_seed(&seed);
        if let Err(e) = wirefuzz::check_torn_frame_interleaving(&scenario, net_addr, &mut rng) {
            panic!("torn probe round {round} failed on {seed}: {e}");
        }
    }
    net_server.shutdown();
}
