//! Replication egress, pinned on the server: the only request that
//! hands a snapshot to the `ReplicationSink` is
//! `SnapshotSession`, and what it hands over is exactly the state the
//! reply carries, under that snapshot's generation. `Tick` and
//! `Recalibrate` replicate nothing, and neither does the snapshot of
//! a session that has not ticked (its spec rebuilds it).

use std::sync::{Arc, Mutex};

use awsad_models::Simulator;
use awsad_net::{NetServer, NetServerConfig};
use awsad_serve::client::Client;
use awsad_serve::server::ServerConfig;
use awsad_serve::wire::{RingMember, SessionSpec, WireTick};
use awsad_serve::{ReplicationSink, ReplicationUpdate};

/// Records every update it is handed.
#[derive(Default)]
struct Recorder {
    updates: Mutex<Vec<ReplicationUpdate>>,
}

impl Recorder {
    fn take(&self) -> Vec<ReplicationUpdate> {
        std::mem::take(&mut *self.updates.lock().expect("recorder lock"))
    }
}

impl ReplicationSink for Recorder {
    fn replicate(&self, update: ReplicationUpdate) -> u64 {
        self.updates.lock().expect("recorder lock").push(update);
        0
    }

    fn ring_update(&self, _epoch: u64, _members: &[RingMember]) {}
}

#[test]
fn net_server_replicates_exactly_what_snapshot_session_returns() {
    let recorder = Arc::new(Recorder::default());
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig {
            base: ServerConfig {
                replication: Some(Arc::clone(&recorder) as Arc<dyn ReplicationSink>),
                ..ServerConfig::default()
            },
            shards: 2,
            ..NetServerConfig::default()
        },
    )
    .expect("bind");

    // One session of Table-1 row 2 through every request that used to
    // replicate, checking the recorder after each.
    let model = Simulator::VehicleTurning.build();
    let (n, m) = (model.state_dim(), model.system.input_dim());
    let spec = SessionSpec::model_defaults(2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let session = client.open_session(&spec).expect("open");

    // Generation 1: a session that never ticked is not shipped.
    client.snapshot_session(session.id).expect("fresh snapshot");
    assert!(
        recorder.take().is_empty(),
        "a never-ticked session was replicated"
    );

    let ticks: Vec<WireTick> = (0..8)
        .map(|t| WireTick {
            estimate: vec![0.01 * t as f64; n],
            input: vec![0.0; m],
        })
        .collect();
    client.tick_batch(session.id, &ticks).expect("tick batch");
    assert!(recorder.take().is_empty(), "Tick replicated");

    let count = client
        .recalibrate(
            session.id,
            n as u32,
            m as u32,
            model.system.a().as_slice(),
            model.system.b().as_slice(),
        )
        .expect("recalibrate");
    assert_eq!(count, 1);
    assert!(recorder.take().is_empty(), "Recalibrate replicated");

    // Generations 2 and 3: each snapshot of the ticked session ships
    // the returned state once, under its own generation.
    for generation in [2, 3] {
        let state = client.snapshot_session(session.id).expect("snapshot");
        let updates = recorder.take();
        assert_eq!(updates.len(), 1, "one update per SnapshotSession");
        let update = &updates[0];
        assert_eq!(update.session, session.id, "session id");
        assert_eq!(update.generation, generation, "generation");
        assert_eq!(update.spec, spec, "spec");
        assert_eq!(update.state, state, "state differs from the reply");
        assert_eq!(state.next_seq, 8);
        assert!(state.recalibration.is_some(), "swap missing");
    }
    client.close_session(session.id).expect("close");
    server.shutdown();
}
