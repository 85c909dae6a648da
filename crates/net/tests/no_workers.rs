//! The server steps each `Tick` batch on the shard thread that read
//! it, so a serving process runs no engine worker threads at all. This is a
//! test binary of its own: no other test's in-process engine can start
//! a worker pool in this process.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use awsad_net::{NetServer, NetServerConfig};
use awsad_runtime::{DetectionEngine, EngineConfig};
use awsad_serve::client::Client;
use awsad_serve::wire::{SessionSpec, WireTick};

/// Names of this process's threads that belong to an engine pool.
fn worker_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|comm| comm.starts_with("awsad-worker"))
        .collect()
}

#[test]
fn servers_serve_a_batch_without_worker_threads() {
    let net = NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig {
            shards: 1,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(net.local_addr()).unwrap();
    let session = client
        .open_session(&SessionSpec::model_defaults(2))
        .unwrap();
    let tick = WireTick {
        estimate: vec![0.0; session.state_dim],
        input: vec![0.0; session.input_dim],
    };
    let outcomes = client.tick_batch(session.id, &vec![tick; 16]).unwrap();
    assert_eq!(outcomes.len(), 16);
    assert_eq!(worker_threads(), Vec::<String>::new());
    net.shutdown();

    // The probe does see a pool when one exists. A spawned thread names
    // itself once it runs, so give it a moment to.
    let engine = DetectionEngine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while worker_threads().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(worker_threads(), vec!["awsad-worker-0".to_owned()]);
    drop(engine);
}
