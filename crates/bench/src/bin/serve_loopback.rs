//! Loopback throughput benchmark for the `awsad-net` server, emitting
//! `results/BENCH_serve.json`.
//!
//! Streams a pinned vehicle-turning attack trace through one real TCP
//! connection on localhost in batched round trips, then replays the
//! identical trace through a local [`DetectionEngine`] and asserts the
//! remote outcome stream — alarms, windows, deadlines — is equal to
//! the direct one. Throughput below [`TARGET_TICKS_PER_SEC`] fails the
//! process, so the CI smoke step doubles as a perf regression gate.
//!
//! A second section measures **reconnect-and-resume latency**: a
//! `ClusterClient` over a one-member ring streams the same scenario
//! while the server is repeatedly killed and rebound on the same
//! address; each in-place resume (reconnect + `RestoreSession` + tick
//! log replay + the interrupted batch) is timed, and the recovered
//! stream is asserted byte-identical to direct stepping.
//!
//! A third section, **`serve_epoll`**, loads the server with
//! [`EPOLL_CONNS`] concurrent loopback
//! connections, each holding its own session and streaming the pinned
//! trace in small batches. The file-descriptor budget cannot hold both
//! sides of 10k sockets in one process, so the benchmark re-execs
//! itself as a server child (`--epoll-server`) and drives the client
//! side with the net crate's own [`Poller`] + incremental codec.
//! Aggregate throughput and p99 wire latency land in the same JSON
//! report with the connect ramp's duration and the accept-queue
//! overflows it caused (the host's `TcpExtListenOverflows` delta),
//! every connection's outcome stream is asserted identical to direct
//! stepping, and a throughput floor gates CI.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use awsad_bench::{write_json, Json};
use awsad_cluster::{ClusterClient, HashRing, Recoveries, RetryPolicy};
use awsad_core::{AdaptiveDetector, AdaptiveStep, DataLogger, DetectorConfig};
use awsad_linalg::Vector;
use awsad_models::Simulator;
use awsad_net::sys::{Event, Interest, Poller};
use awsad_net::{BufferPool, FrameAssembler, NetServer, NetServerConfig, ReadStatus, WriteQueue};
use awsad_reach::{CacheConfig, DeadlineCache};
use awsad_runtime::{DetectionEngine, EngineConfig, Tick};
use awsad_serve::wire::{Frame, RingMember, WireLatency, WireTick, DEFAULT_MAX_FRAME_LEN};
use awsad_serve::{Client, SessionSpec};

/// Ticks streamed over the loopback connection.
const TOTAL_TICKS: usize = 131_072;
/// Ticks per request frame (round trips are the loopback bottleneck).
const BATCH: usize = 512;
/// Deadline-cache capacity installed on both the remote session and
/// its local replica.
const CACHE_CAPACITY: u32 = 4096;
/// Minimum sustained rate the gate accepts, in ticks per second.
const TARGET_TICKS_PER_SEC: f64 = 50_000.0;
/// Ticks streamed in the reconnect-and-resume section.
const RESUME_TICKS: usize = 4096;
/// Batch size for the resume section (small enough that kills land
/// between many batches).
const RESUME_BATCH: usize = 256;
/// Forced server kill/restart cycles in the resume section.
const RESUME_KILLS: usize = 4;
/// Concurrent loopback connections in the `serve_epoll` section
/// (override with `AWSAD_EPOLL_CONNS` for quick local runs).
const EPOLL_CONNS: usize = 10_000;
/// Ticks each epoll-section connection streams through its session.
const EPOLL_TICKS_PER_CONN: usize = 32;
/// Ticks per request frame in the epoll section (one request in
/// flight per connection, so wire latency is a clean round trip).
const EPOLL_BATCH: usize = 16;
/// I/O shards on the server child.
const EPOLL_SHARDS: usize = 2;
/// Deadline-cache capacity per epoll-section session (10k sessions;
/// the pinned trace revisits a handful of states, so small is plenty).
const EPOLL_CACHE_CAPACITY: u32 = 64;
/// Minimum aggregate rate the epoll gate accepts, in ticks per second.
const EPOLL_TARGET_TICKS_PER_SEC: f64 = 20_000.0;
/// Hard wall-clock ceiling on the whole epoll section; tripping it
/// means the event loop stalled, which should fail loudly, not hang.
const EPOLL_DEADLINE_SECS: u64 = 600;

/// The pinned scenario: steady-state regulation that revisits four
/// states, with a constant sensor bias switched on halfway through.
fn pinned_trace(model: &awsad_models::CpsModel, len: usize) -> Vec<WireTick> {
    (0..len)
        .map(|t| {
            let mut estimate = model.x0.clone();
            estimate[0] += 0.01 * ((t % 4) as f64);
            if t >= len / 2 {
                estimate[0] += 0.9;
            }
            WireTick {
                estimate: estimate.as_slice().to_vec(),
                input: vec![0.0; model.system.input_dim()],
            }
        })
        .collect()
}

/// Replays the trace through an in-process engine configured exactly
/// like the server resolves the benchmark's [`SessionSpec`]. The
/// deadline cache is deterministic, so this replica's hit rate equals
/// the remote session's.
fn direct_steps_with_cache(
    model: &awsad_models::CpsModel,
    trace: &[WireTick],
    cache_capacity: u32,
) -> (Vec<AdaptiveStep>, f64) {
    let w_m = model.default_max_window;
    let det_cfg = DetectorConfig::new(model.threshold.clone(), w_m).unwrap();
    let mut detector =
        AdaptiveDetector::new(det_cfg, model.deadline_estimator(w_m).unwrap()).unwrap();
    detector.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(
        cache_capacity as usize,
    )));
    let logger = DataLogger::new(model.system.clone(), w_m);
    let engine = DetectionEngine::new(EngineConfig::default());
    let (handle, outcomes) = engine.add_session(logger, detector);
    for tick in trace {
        handle
            .submit(Tick {
                estimate: Vector::from_slice(&tick.estimate),
                input: Vector::from_slice(&tick.input),
            })
            .unwrap();
    }
    engine.drain();
    let steps = outcomes.try_iter().map(|o| o.step).collect();
    let hit_rate = handle
        .deadline_cache_stats()
        .expect("cache installed")
        .hit_rate();
    (steps, hit_rate)
}

fn direct_steps(model: &awsad_models::CpsModel, trace: &[WireTick]) -> (Vec<AdaptiveStep>, f64) {
    direct_steps_with_cache(model, trace, CACHE_CAPACITY)
}

/// Streams [`RESUME_TICKS`] through a one-member-ring `ClusterClient`
/// while the server is killed and rebound [`RESUME_KILLS`] times,
/// timing each resume (server back up → interrupted batch's outcomes
/// in hand) and asserting the recovered stream equals direct stepping.
fn reconnect_resume(model: &awsad_models::CpsModel) -> Json {
    let trace = pinned_trace(model, RESUME_TICKS);
    let (direct, _) = direct_steps(model, &trace);

    let config = NetServerConfig::default();
    let server = NetServer::bind("127.0.0.1:0", config.clone()).expect("bind resume server");
    let addr = server.local_addr();
    let policy = RetryPolicy {
        max_retries: 60,
        base_delay: std::time::Duration::from_millis(2),
        max_delay: std::time::Duration::from_millis(20),
        seed: 1,
    };
    let member = RingMember {
        shard: 0,
        addr: addr.to_string(),
    };
    let mut client = ClusterClient::with_policy(HashRing::new(1, vec![member]), policy);
    let mut spec = SessionSpec::model_defaults(Simulator::VehicleTurning.table1_row() as u8);
    spec.cache_capacity = CACHE_CAPACITY;
    let session = client.open_session(&spec).expect("open resumable session");

    let chunks: Vec<&[WireTick]> = trace.chunks(RESUME_BATCH).collect();
    let kill_every = chunks.len() / (RESUME_KILLS + 1);
    let mut outcomes = Vec::with_capacity(RESUME_TICKS);
    let mut resume_secs = Vec::new();
    let mut server = Some(server);
    for (i, chunk) in chunks.iter().enumerate() {
        if i > 0 && i % kill_every == 0 && resume_secs.len() < RESUME_KILLS {
            let old = server.take().expect("live server");
            old.shutdown();
            drop(old);
            server = Some(NetServer::bind(addr, config.clone()).expect("rebind resume server"));
            // The server is back; time reconnect + restore + replay
            // up to the interrupted batch's outcomes being in hand.
            let t0 = Instant::now();
            outcomes.extend(client.tick_batch(session.key, chunk).expect("resume batch"));
            resume_secs.push(t0.elapsed().as_secs_f64());
        } else {
            outcomes.extend(client.tick_batch(session.key, chunk).expect("tick batch"));
        }
    }
    server.expect("live server").shutdown();

    let restored = RESUME_KILLS as u64;
    assert_eq!(
        client.recoveries(),
        Recoveries {
            restored,
            ..Recoveries::default()
        }
    );
    assert_eq!(outcomes.len(), direct.len());
    for (i, (remote, local)) in outcomes.iter().zip(&direct).enumerate() {
        assert_eq!(remote.seq, i as u64, "seq discontinuity across resume");
        assert_eq!(&remote.to_step(), local, "resume/direct divergence");
    }
    assert!(outcomes.iter().any(|o| o.alarm()));

    let mean = resume_secs.iter().sum::<f64>() / resume_secs.len() as f64;
    let min = resume_secs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = resume_secs.iter().cloned().fold(0.0_f64, f64::max);
    println!(
        "reconnect_resume: {RESUME_KILLS} server kills over {RESUME_TICKS} ticks, \
         resume latency mean {:.1} ms (min {:.1}, max {:.1}), \
         resumed stream identical to direct engine",
        1e3 * mean,
        1e3 * min,
        1e3 * max
    );
    Json::Obj(vec![
        ("ticks".into(), Json::Int(RESUME_TICKS as u64)),
        ("batch".into(), Json::Int(RESUME_BATCH as u64)),
        ("server_kills".into(), Json::Int(RESUME_KILLS as u64)),
        ("restored".into(), Json::Int(restored)),
        ("resume_mean_ms".into(), Json::Num(1e3 * mean)),
        ("resume_min_ms".into(), Json::Num(1e3 * min)),
        ("resume_max_ms".into(), Json::Num(1e3 * max)),
        ("matches_direct_engine".into(), Json::Bool(true)),
    ])
}

/// The server side of the `serve_epoll` section, run in a re-exec'd
/// child so each process stays inside the file-descriptor limit.
/// Prints the bound port, then parks until the parent closes stdin.
fn epoll_server_child() -> ExitCode {
    let config = NetServerConfig {
        shards: EPOLL_SHARDS,
        ..NetServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config).expect("bind epoll server");
    println!("PORT={}", server.local_addr().port());
    std::io::stdout().flush().expect("flush port line");
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    server.shutdown();
    ExitCode::SUCCESS
}

fn spawn_epoll_server() -> (Child, SocketAddr) {
    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(exe)
        .arg("--epoll-server")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn epoll server child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read child port line");
    let port: u16 = line
        .trim()
        .strip_prefix("PORT=")
        .expect("child printed PORT=<n>")
        .parse()
        .expect("child port");
    (child, SocketAddr::from(([127, 0, 0, 1], port)))
}

/// One load-generator connection: a nonblocking socket with the net
/// crate's incremental assembler and vectored write queue, holding one
/// session and at most one request in flight.
struct BenchConn {
    stream: TcpStream,
    assembler: FrameAssembler,
    writes: WriteQueue,
    interest: Interest,
    session: u64,
    opened: bool,
    chunk: usize,
    outcomes: Vec<awsad_serve::wire::WireOutcome>,
    sent_at: Option<Instant>,
    closed: bool,
}

struct Progress {
    opened: usize,
    done: usize,
}

fn queue_frame(conn: &mut BenchConn, frame: &Frame) {
    conn.writes.push_frame(frame.encode());
}

fn send_chunk(conn: &mut BenchConn, chunks: &[Vec<WireTick>]) {
    let ticks = chunks[conn.chunk].clone();
    conn.chunk += 1;
    conn.sent_at = Some(Instant::now());
    queue_frame(
        conn,
        &Frame::Tick {
            session: conn.session,
            ticks,
        },
    );
}

fn flush_conn(conn: &mut BenchConn) {
    if conn.closed || conn.writes.is_empty() {
        return;
    }
    conn.writes
        .flush(&mut conn.stream)
        .expect("epoll conn write");
}

fn sync_interest(poller: &mut Poller, token: u64, conn: &mut BenchConn) {
    if conn.closed {
        return;
    }
    let want = if conn.writes.is_empty() {
        Interest::READ
    } else {
        Interest::READ_WRITE
    };
    if want != conn.interest {
        poller
            .reregister(conn.stream.as_raw_fd(), token, want)
            .expect("reregister epoll conn");
        conn.interest = want;
    }
}

fn on_readable(
    conn: &mut BenchConn,
    pool: &mut BufferPool,
    payloads: &mut Vec<Vec<u8>>,
    chunks: &[Vec<WireTick>],
    latencies: &mut Vec<f64>,
    progress: &mut Progress,
    poller: &mut Poller,
) {
    if conn.closed {
        return;
    }
    let status = conn
        .assembler
        .read_available(&mut conn.stream, pool, payloads);
    for payload in payloads.drain(..) {
        let env = Frame::decode_enveloped(&payload).expect("decode server reply");
        pool.put(payload);
        match env.frame {
            Frame::SessionOpened { session, .. } => {
                conn.session = session;
                conn.opened = true;
                progress.opened += 1;
            }
            Frame::TickOutcomes { outcomes, .. } => {
                if let Some(t0) = conn.sent_at.take() {
                    latencies.push(t0.elapsed().as_secs_f64());
                }
                conn.outcomes.extend(outcomes);
                if conn.chunk < chunks.len() {
                    send_chunk(conn, chunks);
                } else {
                    queue_frame(
                        conn,
                        &Frame::CloseSession {
                            session: conn.session,
                        },
                    );
                }
            }
            Frame::SessionClosed { .. } => {
                progress.done += 1;
                conn.closed = true;
                poller
                    .deregister(conn.stream.as_raw_fd())
                    .expect("deregister epoll conn");
            }
            Frame::Error { code, message } => panic!("server error {code:?}: {message}"),
            other => panic!("unexpected reply {}", other.type_name()),
        }
    }
    match status {
        ReadStatus::WouldBlock => {}
        ReadStatus::Closed => assert!(conn.closed, "server closed a connection early"),
        ReadStatus::Protocol(e) => panic!("protocol error from server: {e}"),
        ReadStatus::Io(e) => panic!("epoll conn read: {e}"),
    }
}

/// Pumps the event loop until `finished` says the phase is over.
#[allow(clippy::too_many_arguments)]
fn drive(
    poller: &mut Poller,
    conns: &mut [BenchConn],
    pool: &mut BufferPool,
    payloads: &mut Vec<Vec<u8>>,
    chunks: &[Vec<WireTick>],
    latencies: &mut Vec<f64>,
    progress: &mut Progress,
    deadline: Instant,
    finished: impl Fn(&Progress) -> bool,
) {
    let mut events: Vec<Event> = Vec::with_capacity(1024);
    while !finished(progress) {
        assert!(
            Instant::now() < deadline,
            "serve_epoll stalled past its {EPOLL_DEADLINE_SECS}s deadline \
             ({} opened, {} done)",
            progress.opened,
            progress.done
        );
        poller
            .wait(&mut events, Duration::from_millis(200))
            .expect("poller wait");
        for ev in &events {
            let conn = &mut conns[ev.token as usize];
            if ev.readable || ev.closed {
                on_readable(conn, pool, payloads, chunks, latencies, progress, poller);
            }
            if ev.writable || !conn.writes.is_empty() {
                flush_conn(conn);
            }
            sync_interest(poller, ev.token, conn);
        }
    }
}

/// The host's `TcpExtListenOverflows` counter from `/proc/net/netstat`
/// (per network namespace; `None` where the file is absent): SYNs
/// dropped because an accept queue was full.
fn listen_overflows() -> Option<u64> {
    let netstat = std::fs::read_to_string("/proc/net/netstat").ok()?;
    let mut rows = netstat.lines().filter(|l| l.starts_with("TcpExt:"));
    let (names, values) = (rows.next()?, rows.next()?);
    let column = names
        .split_whitespace()
        .position(|name| name == "ListenOverflows")?;
    values.split_whitespace().nth(column)?.parse().ok()
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The `serve_epoll` section: [`EPOLL_CONNS`] concurrent connections
/// against the server child, every stream asserted identical
/// to direct stepping. Returns the report and whether the throughput
/// floor held.
fn serve_epoll(model: &awsad_models::CpsModel) -> (Json, bool) {
    let nconns: usize = std::env::var("AWSAD_EPOLL_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(EPOLL_CONNS);
    let trace = pinned_trace(model, EPOLL_TICKS_PER_CONN);
    let (direct, _) = direct_steps_with_cache(model, &trace, EPOLL_CACHE_CAPACITY);
    let chunks: Vec<Vec<WireTick>> = trace
        .chunks(EPOLL_BATCH)
        .map(<[WireTick]>::to_vec)
        .collect();
    let mut spec = SessionSpec::model_defaults(Simulator::VehicleTurning.table1_row() as u8);
    spec.cache_capacity = EPOLL_CACHE_CAPACITY;

    let (mut child, addr) = spawn_epoll_server();
    let deadline = Instant::now() + Duration::from_secs(EPOLL_DEADLINE_SECS);
    let mut poller = Poller::new(false).expect("client poller");
    let mut pool = BufferPool::default();
    let mut payloads = Vec::new();
    let mut latencies = Vec::with_capacity(nconns * chunks.len());
    let mut progress = Progress { opened: 0, done: 0 };

    // Ramp: sequential blocking connects, then flip nonblocking. The
    // client connects faster than a busy shard accepts, so the accept
    // queue must hold the burst: each overflow drops a SYN and costs
    // that connect a 1 s retransmit.
    let overflows_before = listen_overflows();
    let t_connect = Instant::now();
    let mut conns = Vec::with_capacity(nconns);
    for i in 0..nconns {
        let stream = TcpStream::connect(addr).expect("connect epoll conn");
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).expect("set nonblocking");
        poller
            .register(stream.as_raw_fd(), i as u64, Interest::READ)
            .expect("register epoll conn");
        conns.push(BenchConn {
            stream,
            assembler: FrameAssembler::new(DEFAULT_MAX_FRAME_LEN),
            writes: WriteQueue::default(),
            interest: Interest::READ,
            session: 0,
            opened: false,
            chunk: 0,
            outcomes: Vec::with_capacity(EPOLL_TICKS_PER_CONN),
            sent_at: None,
            closed: false,
        });
    }
    let connect_sec = t_connect.elapsed().as_secs_f64();
    let overflows = listen_overflows()
        .zip(overflows_before)
        .map(|(after, before)| after.saturating_sub(before));

    // Phase A: open one session per connection.
    let t_open = Instant::now();
    for (i, conn) in conns.iter_mut().enumerate() {
        queue_frame(conn, &Frame::OpenSession(spec.clone()));
        flush_conn(conn);
        sync_interest(&mut poller, i as u64, conn);
    }
    drive(
        &mut poller,
        &mut conns,
        &mut pool,
        &mut payloads,
        &chunks,
        &mut latencies,
        &mut progress,
        deadline,
        |p| p.opened == nconns,
    );
    let open_sec = t_open.elapsed().as_secs_f64();

    // Phase B: stream the trace everywhere, then close. Throughput is
    // measured over this whole phase, close round trips included.
    let t_stream = Instant::now();
    for (i, conn) in conns.iter_mut().enumerate() {
        send_chunk(conn, &chunks);
        flush_conn(conn);
        sync_interest(&mut poller, i as u64, conn);
    }
    drive(
        &mut poller,
        &mut conns,
        &mut pool,
        &mut payloads,
        &chunks,
        &mut latencies,
        &mut progress,
        deadline,
        |p| p.done == nconns,
    );
    let stream_sec = t_stream.elapsed().as_secs_f64();
    let total_ticks = nconns * EPOLL_TICKS_PER_CONN;
    let ticks_per_sec = total_ticks as f64 / stream_sec;

    // Fidelity: every connection's stream equals direct stepping.
    let mut alarms = 0usize;
    for (i, conn) in conns.iter().enumerate() {
        assert_eq!(conn.outcomes.len(), direct.len(), "conn {i} outcome count");
        for (t, (remote, local)) in conn.outcomes.iter().zip(&direct).enumerate() {
            assert!(!remote.degraded, "conn {i} tick {t} degraded");
            assert_eq!(remote.seq, t as u64, "conn {i} seq discontinuity");
            assert_eq!(&remote.to_step(), local, "conn {i} tick {t} diverged");
        }
        alarms += conn.outcomes.iter().filter(|o| o.alarm()).count();
    }
    assert!(alarms > 0, "the pinned bias attack must raise alarms");

    // Server-side counters over the wire, then release the child.
    let mut mclient = Client::connect(addr).expect("metrics connect");
    let wm = mclient.metrics().expect("epoll metrics");
    drop(mclient);
    drop(child.stdin.take());
    let status = child.wait().expect("epoll server child exit");
    assert!(status.success(), "epoll server child failed: {status}");

    assert_eq!(wm.shards, EPOLL_SHARDS as u64, "shard count over the wire");
    assert_eq!(wm.decode_errors, 0, "decode errors under honest load");
    assert_eq!(wm.sessions_evicted, 0, "no TTL evictions configured");
    assert_eq!(wm.sessions_active, 0, "all sessions closed");
    assert!(wm.connections_opened >= nconns as u64);

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let max = latencies.last().copied().unwrap_or(0.0);
    let meets_target = ticks_per_sec >= EPOLL_TARGET_TICKS_PER_SEC && nconns >= EPOLL_CONNS;

    println!(
        "serve_epoll: {nconns} connections × {EPOLL_TICKS_PER_CONN} ticks over \
         {EPOLL_SHARDS} shards in {stream_sec:.3} s ({ticks_per_sec:.0} ticks/s), \
         wire latency p50 {:.1} ms / p99 {:.1} ms, connect {connect_sec:.2} s \
         ({} listen overflows), open {open_sec:.2} s, {alarms} alarms, \
         all streams identical to direct engine",
        1e3 * p50,
        1e3 * p99,
        overflows.map_or_else(|| "unknown".to_string(), |n| n.to_string()),
    );
    let report = Json::Obj(vec![
        ("connections".into(), Json::Int(nconns as u64)),
        ("shards".into(), Json::Int(EPOLL_SHARDS as u64)),
        (
            "ticks_per_conn".into(),
            Json::Int(EPOLL_TICKS_PER_CONN as u64),
        ),
        ("batch".into(), Json::Int(EPOLL_BATCH as u64)),
        ("total_ticks".into(), Json::Int(total_ticks as u64)),
        ("connect_sec".into(), Json::Num(connect_sec)),
        ("listen_overflows".into(), Json::opt_int(overflows)),
        ("open_sec".into(), Json::Num(open_sec)),
        ("stream_sec".into(), Json::Num(stream_sec)),
        ("ticks_per_sec".into(), Json::Num(ticks_per_sec)),
        (
            "target_ticks_per_sec".into(),
            Json::Num(EPOLL_TARGET_TICKS_PER_SEC),
        ),
        ("meets_target".into(), Json::Bool(meets_target)),
        ("wire_latency_p50_ms".into(), Json::Num(1e3 * p50)),
        ("wire_latency_p99_ms".into(), Json::Num(1e3 * p99)),
        ("wire_latency_max_ms".into(), Json::Num(1e3 * max)),
        ("alarms".into(), Json::Int(alarms as u64)),
        (
            "partial_frame_resumes".into(),
            Json::Int(wm.partial_frame_resumes),
        ),
        ("decode_errors".into(), Json::Int(wm.decode_errors)),
        ("sessions_evicted".into(), Json::Int(wm.sessions_evicted)),
        ("matches_direct_engine".into(), Json::Bool(true)),
    ]);
    (report, meets_target)
}

fn latency_json(l: &WireLatency) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::Int(l.count)),
        ("mean_ns".into(), Json::Num(l.mean_ns)),
        ("p50_bound_ns".into(), Json::opt_int(l.p50_bound_ns)),
        ("p99_bound_ns".into(), Json::opt_int(l.p99_bound_ns)),
        ("overflow".into(), Json::Int(l.overflow)),
    ])
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--epoll-server") {
        return epoll_server_child();
    }
    let model = Simulator::VehicleTurning.build();
    let trace = pinned_trace(&model, TOTAL_TICKS);
    let (direct, cache_hit_rate) = direct_steps(&model, &trace);

    let server = NetServer::bind("127.0.0.1:0", NetServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut spec = SessionSpec::model_defaults(Simulator::VehicleTurning.table1_row() as u8);
    spec.cache_capacity = CACHE_CAPACITY;
    let session = client.open_session(&spec).expect("open session");

    let mut outcomes = Vec::with_capacity(TOTAL_TICKS);
    let start = Instant::now();
    for chunk in trace.chunks(BATCH) {
        outcomes.extend(client.tick_batch(session.id, chunk).expect("tick batch"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let ticks_per_sec = TOTAL_TICKS as f64 / elapsed;

    // Fidelity: the remote stream must be equal to direct stepping.
    assert_eq!(outcomes.len(), direct.len());
    assert!(outcomes.iter().all(|o| !o.degraded));
    for (remote, local) in outcomes.iter().zip(&direct) {
        assert_eq!(&remote.to_step(), local, "remote/direct divergence");
    }
    let alarms = outcomes.iter().filter(|o| o.alarm()).count();
    assert!(alarms > 0, "the pinned bias attack must raise alarms");

    let metrics = client.metrics().expect("metrics");
    server.shutdown();

    // Fault-tolerance section: its own server instance, so the kill
    // cycles cannot disturb the throughput gate above.
    let resume_report = reconnect_resume(&model);

    // Readiness-server section: its own child process.
    let (epoll_report, epoll_meets) = serve_epoll(&model);

    let meets_target = ticks_per_sec >= TARGET_TICKS_PER_SEC && epoll_meets;
    let report = Json::Obj(vec![
        ("bench".into(), Json::str("serve_loopback")),
        ("model".into(), Json::str(model.name)),
        ("ticks".into(), Json::Int(TOTAL_TICKS as u64)),
        ("batch".into(), Json::Int(BATCH as u64)),
        ("elapsed_sec".into(), Json::Num(elapsed)),
        ("ticks_per_sec".into(), Json::Num(ticks_per_sec)),
        (
            "target_ticks_per_sec".into(),
            Json::Num(TARGET_TICKS_PER_SEC),
        ),
        ("meets_target".into(), Json::Bool(meets_target)),
        ("alarms".into(), Json::Int(alarms as u64)),
        ("matches_direct_engine".into(), Json::Bool(true)),
        ("cache_hit_rate".into(), Json::Num(cache_hit_rate)),
        ("log_latency".into(), latency_json(&metrics.log_latency)),
        (
            "detect_latency".into(),
            latency_json(&metrics.detect_latency),
        ),
        (
            "transport".into(),
            Json::Obj(vec![
                ("frames_in".into(), Json::Int(metrics.frames_in)),
                ("frames_out".into(), Json::Int(metrics.frames_out)),
                ("decode_errors".into(), Json::Int(metrics.decode_errors)),
                (
                    "connections_opened".into(),
                    Json::Int(metrics.connections_opened),
                ),
                (
                    "connections_dropped".into(),
                    Json::Int(metrics.connections_dropped),
                ),
            ]),
        ),
        ("reconnect_resume".into(), resume_report),
        ("serve_epoll".into(), epoll_report),
    ]);
    let path = write_json("BENCH_serve.json", &report);

    println!(
        "serve_loopback: {TOTAL_TICKS} ticks in {elapsed:.3} s over localhost \
         ({ticks_per_sec:.0} ticks/s, batch {BATCH}), {alarms} alarms, \
         cache hit rate {:.1}%, outcome stream identical to direct engine",
        100.0 * cache_hit_rate
    );
    println!("wrote {}", path.display());
    if !meets_target {
        eprintln!(
            "FAIL: one connection {ticks_per_sec:.0} ticks/s (gate {TARGET_TICKS_PER_SEC:.0}) \
             or the serve_epoll section missed its floor"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
