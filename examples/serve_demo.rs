//! Detection-as-a-service over loopback TCP.
//!
//! Starts an `awsad-net` server in-process, connects the blocking
//! client, opens one remote session per plant family, and streams
//! each session a seeded attack episode in batches. Everything the
//! client sees — alarms, windows, deadlines — travelled through the
//! versioned binary wire protocol; the final metrics query shows the
//! engine counters next to the server's transport counters.
//!
//! Run with `cargo run --release --example serve_demo`.

use awsad::models::Simulator;
use awsad::prelude::*;
use awsad::serve::wire::WireTick;
use awsad::sim::run_episode;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCH: usize = 64;

fn main() {
    let server = NetServer::bind("127.0.0.1:0", NetServerConfig::default()).expect("bind loopback");
    println!("detection server listening on {}\n", server.local_addr());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    println!(
        "{:<22} {:>6} {:>7} {:>7} {:>11}",
        "session", "ticks", "alarms", "onset", "1st alarm"
    );
    for sim in Simulator::all() {
        let model = sim.build();
        let mut cfg = EpisodeConfig::for_model(&model);
        cfg.steps = cfg.steps.min(300);

        // A seeded bias-attack episode, generated locally; only raw
        // measurements cross the wire — detection happens server-side.
        let seed = 4200 + sim.table1_row() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = sample_attack(&model, AttackKind::Bias, &mut rng);
        let mut attack = scenario.attack;
        let episode = run_episode(
            &model,
            attack.as_mut(),
            Some(scenario.reference),
            &cfg,
            seed,
        );

        // The spec pins w_m to the episode's max window so the remote
        // detector matches what the episode was profiled with, and
        // installs an exact deadline cache (decisions unchanged).
        let mut spec = SessionSpec::model_defaults(sim.table1_row() as u8);
        spec.max_window = cfg.max_window as u32;
        spec.cache_capacity = 4096;
        let session = client.open_session(&spec).expect("open session");

        let ticks: Vec<WireTick> = episode
            .estimates
            .iter()
            .zip(&episode.inputs)
            .map(|(x, u)| WireTick {
                estimate: x.as_slice().to_vec(),
                input: u.as_slice().to_vec(),
            })
            .collect();

        let mut outcomes = Vec::with_capacity(ticks.len());
        for chunk in ticks.chunks(BATCH) {
            outcomes.extend(client.tick_batch(session.id, chunk).expect("tick batch"));
        }

        let alarms = outcomes.iter().filter(|o| o.alarm()).count();
        let onset = episode.attack_onset;
        let first_alarm = onset
            .and_then(|t| {
                outcomes
                    .iter()
                    .find(|o| o.seq as usize >= t && o.alarm())
                    .map(|o| o.seq)
            })
            .map(|s| s.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<22} {:>6} {:>7} {:>7} {:>11}",
            format!("{} (#{})", sim, session.id),
            outcomes.len(),
            alarms,
            onset.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
            first_alarm,
        );
        client.close_session(session.id).expect("close session");
    }

    let m = client.metrics().expect("metrics");
    println!("\nserver metrics (engine | transport)");
    println!("  ticks processed        {}", m.ticks_processed);
    println!("  alarms raised          {}", m.alarms_raised);
    println!("  degraded ticks         {}", m.degraded_ticks);
    println!("  queue high-water       {}", m.queue_depth_high_water);
    for (name, lat) in [
        ("log stage", m.log_latency),
        ("detect stage", m.detect_latency),
    ] {
        println!(
            "  {name:<14} mean {:>8.0} ns, p99 ≤ {}",
            lat.mean_ns,
            lat.p99_bound_ns
                .map(|b| format!("{b} ns"))
                .unwrap_or_else(|| "overflow".into()),
        );
    }
    println!("  frames in/out          {}/{}", m.frames_in, m.frames_out);
    println!("  decode errors          {}", m.decode_errors);
    println!(
        "  connections            {} opened, {} dropped",
        m.connections_opened, m.connections_dropped
    );

    server.shutdown();
    println!("\nserver shut down cleanly");
}
