//! `fleet`: an in-process engine in cross-session batch mode.
//!
//! 64 sessions of the 8-d coupled contraction plant (horizon 512, `w_m`
//! 16, re-estimation every tick, no cache) on one worker that gathers
//! one tick per session at a time. The producer keeps two control
//! rounds in flight — a round is one tick per session — so the worker
//! always finds a whole round queued when it finishes one (with one
//! round in flight, lane grouping depended on when the worker woke),
//! and it polls for outcomes rather than blocking, so neither CPU idles.
//! No wire code runs; detection is most of the worker's time.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::Instant;

use awsad_core::{
    AdaptiveDetector, AdaptiveStep, BatchLane, BatchPlan, DataLogger, DetectorConfig,
};
use awsad_linalg::{Matrix, Vector};
use awsad_lti::LtiSystem;
use awsad_reach::{BatchScratch, DeadlineEstimator, ReachConfig};
use awsad_runtime::{DetectionEngine, EngineConfig, SessionHandle, Tick, TickOutcome};
use awsad_sets::BoxSet;

use crate::gate::{outcome_digest, Digest, Ledger, RefSession, ReplayStats};
use crate::inputs::FleetStream;
use crate::phase::{Counters, Done, Load};
use crate::trace::Tracer;

/// Plant state dimension.
pub const DIM: usize = 8;
/// Reachability horizon; every walk runs all of it.
pub const HORIZON: usize = 512;
/// Maximum detection window.
pub const W_M: usize = 16;
/// Rounds kept in flight by the producer.
pub const IN_FLIGHT: usize = 2;

/// The 8-d stable plant: 0.96 on the diagonal with a ±0.02
/// nearest-neighbour coupling band, so each walk step is a dense `A·x`.
pub fn plant() -> LtiSystem {
    let mut rows = vec![vec![0.0f64; DIM]; DIM];
    for (i, row) in rows.iter_mut().enumerate() {
        row[i] = 0.96;
        if i + 1 < DIM {
            row[i + 1] = 0.02;
        }
        if i > 0 {
            row[i - 1] = -0.02;
        }
    }
    let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let a = Matrix::from_rows(&row_refs).expect("square rows");
    LtiSystem::new_discrete_fully_observable(a, Matrix::identity(DIM), 0.02).expect("valid plant")
}

/// One session's logger and detector: tight actuation and a roomy safe
/// set keep the reach tube inside for the whole horizon, so deadlines
/// resolve `Beyond` after a full walk; τ = 1e3 never alarms.
pub fn session(sys: &LtiSystem) -> (DataLogger, AdaptiveDetector) {
    let reach = ReachConfig::new(
        BoxSet::from_bounds(&[-0.1; DIM], &[0.1; DIM]).expect("box"),
        0.0,
        BoxSet::from_bounds(&[-50.0; DIM], &[50.0; DIM]).expect("box"),
        HORIZON,
    )
    .expect("reach config");
    let est = DeadlineEstimator::new(sys.a(), sys.b(), reach).expect("estimator");
    let cfg = DetectorConfig::new(Vector::from_slice(&[1e3; DIM]), W_M).expect("config");
    let logger = DataLogger::new(sys.clone(), W_M);
    let mut det = AdaptiveDetector::new(cfg, est).expect("detector");
    det.set_reestimation_period(1);
    (logger, det)
}

/// The engine configuration: one worker, cross-session batching on,
/// one tick per session per gather. At the default `drain_batch` a
/// gather that starts while the producer is submitting the next round
/// takes those sessions' ticks of both rounds in flight, and on the
/// reference host the engine then fell, in some runs, into a slow mode:
/// in alternating pairs of runs 63k–102k ticks/s with p90 latency
/// 1.9–3.3 ms, against 109k–124k and 1.2–1.4 ms at one tick per gather.
/// That is a weakness of the default gather policy under this load,
/// recorded in `NOTES.md`; measuring it here would make every `fleet`
/// figure depend on which mode a run fell into.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        cross_session_batch: true,
        drain_batch: 1,
        ..EngineConfig::default()
    }
}

/// The running fleet and its producer state.
pub struct Fleet {
    engine: DetectionEngine,
    sessions: Vec<(SessionHandle, Receiver<TickOutcome>)>,
    streams: Vec<FleetStream>,
    in_flight: VecDeque<Instant>,
    round: u64,
    buf: Vec<Tick>,
    est: Vec<f64>,
    inp: Vec<f64>,
    /// Digests of completed rounds.
    pub ledger: Ledger,
    corrupt: Option<u64>,
}

impl Fleet {
    /// Starts the engine and opens `sessions` sessions.
    pub fn setup(seed: u64, sessions: usize, corrupt: Option<u64>) -> Fleet {
        let sys = plant();
        let engine = DetectionEngine::new(engine_config());
        let handles = (0..sessions)
            .map(|_| {
                let (logger, detector) = session(&sys);
                engine.add_session(logger, detector)
            })
            .collect();
        Fleet {
            engine,
            sessions: handles,
            streams: (0..sessions)
                .map(|s| FleetStream::new(seed, s, DIM))
                .collect(),
            in_flight: VecDeque::with_capacity(IN_FLIGHT + 1),
            round: 0,
            buf: Vec::with_capacity(sessions),
            est: Vec::with_capacity(DIM),
            inp: Vec::with_capacity(DIM),
            ledger: Ledger::new(1),
            corrupt,
        }
    }

    fn submit_round(&mut self, tracer: &mut Tracer, request: u64) -> Result<(), String> {
        self.buf.clear();
        for stream in &mut self.streams {
            stream.next_into(&mut self.est, &mut self.inp);
            self.buf.push(Tick {
                estimate: Vector::from_slice(&self.est),
                input: Vector::from_slice(&self.inp),
            });
        }
        let span = tracer.now();
        let start = Instant::now();
        for ((handle, _), tick) in self.sessions.iter().zip(self.buf.drain(..)) {
            handle.submit(tick).map_err(|e| e.to_string())?;
        }
        tracer.record("submit", request, false, span);
        self.in_flight.push_back(start);
        Ok(())
    }

    fn complete_round(&mut self, tracer: &mut Tracer, request: u64) -> Result<u64, String> {
        let span = tracer.now();
        let mut digest = Digest::default();
        for (i, (_, rx)) in self.sessions.iter().enumerate() {
            let mut o = recv_polling(rx).map_err(|e| format!("session {i}: {e}"))?;
            if self.corrupt == Some(self.round) && i == 0 {
                o.step.current_alarm = !o.step.current_alarm;
            }
            digest.step(o.seq, o.degraded, &o.step);
        }
        let done = Instant::now();
        tracer.record("recv", request, false, span);
        let start = self.in_flight.pop_front().expect("a round is in flight");
        self.ledger.record(0, digest.finish());
        self.round += 1;
        Ok((done - start).as_nanos() as u64)
    }

    fn fail(&mut self, e: String) -> String {
        self.ledger.fail(e)
    }
}

/// Waits for the next outcome on `rx` by polling, so the load thread's
/// CPU never idles. An idle virtual CPU halts, and how soon the
/// reference host runs it again after a wake-up is the host's choice:
/// with a blocking receive, runs fell in busy periods into a mode at
/// about half the throughput with p90 latency of 2.3–3.9 ms (in nine
/// alternating runs, blocking gave 59k–126k ticks/s with p90 1.1–3.9 ms,
/// polling 100k–125k with p90 1.2–1.4 ms).
fn recv_polling(rx: &Receiver<TickOutcome>) -> Result<TickOutcome, TryRecvError> {
    loop {
        match rx.try_recv() {
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
            other => return other,
        }
    }
}

impl Load for Fleet {
    fn next(&mut self, tracer: &mut Tracer) -> Result<Done, String> {
        let request = self.round;
        let root = tracer.now();
        while self.in_flight.len() < IN_FLIGHT {
            if let Err(e) = self.submit_round(tracer, request) {
                return Err(self.fail(e));
            }
        }
        let latency_ns = match self.complete_round(tracer, request) {
            Ok(l) => l,
            Err(e) => return Err(self.fail(e)),
        };
        if let Err(e) = self.submit_round(tracer, request) {
            return Err(self.fail(e));
        }
        tracer.record("round", request, true, root);
        Ok(Done {
            ticks: self.sessions.len() as u64,
            latency_ns,
        })
    }

    fn counters(&self) -> Counters {
        Counters {
            engine: self.engine.metrics(),
            ..Counters::default()
        }
    }

    fn settle(&mut self) -> Result<(), String> {
        let mut off = Tracer::default();
        while !self.in_flight.is_empty() {
            let request = self.round;
            if let Err(e) = self.complete_round(&mut off, request) {
                return Err(self.fail(e));
            }
        }
        Ok(())
    }
}

/// Rounds replayed with timing on traced runs (a prefix of the run).
const TIMED_ROUNDS: usize = 400;

/// Replays `rounds` fleet rounds through scalar reference stacks and
/// returns each round's expected digest. The sessions are independent,
/// so the gate replay splits them over two threads. When `timed`, a
/// prefix of the rounds is replayed again on one thread with record,
/// step and walk timed, alongside a second set of stacks stepped
/// through `BatchPlan::step_group`; a batch outcome that differs from
/// the scalar one is counted in the returned mismatch count.
pub fn replay(
    seed: u64,
    sessions: usize,
    rounds: usize,
    timed: bool,
) -> (Vec<u64>, ReplayStats, u64) {
    let sys = plant();
    let mid = sessions / 2;
    let parts: Vec<(Vec<Vec<u64>>, ReplayStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = [(0, mid), (mid, sessions)]
            .into_iter()
            .filter(|(a, b)| a < b)
            .map(|(a, b)| {
                let sys = &sys;
                scope.spawn(move || gate_sessions(sys, seed, a..b, rounds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    let mut stats = ReplayStats::default();
    let mut per_session = Vec::with_capacity(sessions);
    for (digests, part) in parts {
        stats.merge(&part);
        per_session.extend(digests);
    }
    let expected = (0..rounds)
        .map(|r| {
            let mut d = Digest::default();
            for s in &per_session {
                d.word(s[r]);
            }
            d.finish()
        })
        .collect();
    let mismatches = if timed {
        let t = timing_replay(&sys, seed, sessions, rounds.min(TIMED_ROUNDS));
        stats.record_ns = t.record_ns;
        stats.step_ns = t.step_ns;
        stats.timed_ticks = t.timed_ticks;
        stats.walk_ns = t.walk_ns;
        stats.timed_walks = t.timed_walks;
        stats.batch_step_ns = t.batch_step_ns;
        stats.batch_walk_ns = t.batch_walk_ns;
        stats.batch_lanes = t.batch_lanes;
        t.mismatches
    } else {
        0
    };
    (expected, stats, mismatches)
}

/// The gate replay of sessions `range`: per session, one outcome digest
/// per round.
fn gate_sessions(
    sys: &LtiSystem,
    seed: u64,
    range: std::ops::Range<usize>,
    rounds: usize,
) -> (Vec<Vec<u64>>, ReplayStats) {
    let mut stats = ReplayStats::default();
    let (mut est, mut inp) = (Vec::with_capacity(DIM), Vec::with_capacity(DIM));
    let digests = range
        .map(|s| {
            let mut stream = FleetStream::new(seed, s, DIM);
            let (logger, detector) = session(sys);
            let mut reference = RefSession::new(logger, detector);
            (0..rounds)
                .map(|r| {
                    stream.next_into(&mut est, &mut inp);
                    let seq = reference.seq;
                    let step = reference.tick(&est, &inp, r == 0, false, false, &mut stats);
                    outcome_digest(seq, false, &step)
                })
                .collect()
        })
        .collect();
    (digests, stats)
}

/// Timings of the traced prefix replay.
#[derive(Default)]
struct Timing {
    record_ns: u64,
    step_ns: u64,
    timed_ticks: u64,
    walk_ns: u64,
    timed_walks: u64,
    batch_step_ns: u64,
    batch_walk_ns: u64,
    batch_lanes: u64,
    mismatches: u64,
}

/// Two passes over the same `rounds`: scalar stacks with step and walk
/// timed, then batch stacks with record, `step_group` and the batched
/// walk timed. Separate passes keep each kernel's caches as warm as the
/// engine keeps them (interleaving the 64 scalar walks between batch
/// steps evicted the batch plan's working set).
fn timing_replay(sys: &LtiSystem, seed: u64, sessions: usize, rounds: usize) -> Timing {
    let mut stats = ReplayStats::default();
    let (mut est, mut inp) = (Vec::with_capacity(DIM), Vec::with_capacity(DIM));
    let mut scalar = Vec::with_capacity(rounds * sessions);
    let mut streams: Vec<FleetStream> = (0..sessions)
        .map(|s| FleetStream::new(seed, s, DIM))
        .collect();
    let mut refs: Vec<RefSession> = (0..sessions)
        .map(|_| {
            let (l, d) = session(sys);
            RefSession::new(l, d)
        })
        .collect();
    for r in 0..rounds {
        for (stream, reference) in streams.iter_mut().zip(&mut refs) {
            stream.next_into(&mut est, &mut inp);
            let seq = reference.seq;
            let step = reference.tick(&est, &inp, r == 0, false, true, &mut stats);
            scalar.push(outcome_digest(seq, false, &step));
        }
    }

    let mut streams: Vec<FleetStream> = (0..sessions)
        .map(|s| FleetStream::new(seed, s, DIM))
        .collect();
    let (mut loggers, mut dets): (Vec<DataLogger>, Vec<AdaptiveDetector>) =
        (0..sessions).map(|_| session(sys)).unzip();
    let mut plan = BatchPlan::new();
    let mut bscratch = BatchScratch::new();
    let mut bdeadlines = Vec::with_capacity(sessions);
    let mut bsteps: Vec<AdaptiveStep> = Vec::with_capacity(sessions);
    let mut t = Timing::default();
    for (r, expected) in scalar.chunks(sessions).enumerate() {
        for (stream, logger) in streams.iter_mut().zip(&mut loggers) {
            stream.next_into(&mut est, &mut inp);
            let (x, u) = (Vector::from_slice(&est), Vector::from_slice(&inp));
            let l0 = Instant::now();
            logger.record(x, u);
            t.record_ns += l0.elapsed().as_nanos() as u64;
        }
        let r0 = dets[0].initial_radius();
        let trusted: Vec<&Vector> = loggers
            .iter()
            .zip(&dets)
            .map(|(l, d)| {
                &l.trusted_entry(d.previous_window())
                    .expect("recorded")
                    .estimate
            })
            .collect();
        let w0 = Instant::now();
        dets[0]
            .estimator()
            .deadline_batch_refs_with(&trusted, r0, &mut bscratch, &mut bdeadlines)
            .expect("dimensions match");
        t.batch_walk_ns += w0.elapsed().as_nanos() as u64;
        std::hint::black_box(&bdeadlines);
        drop(trusted);
        let mut lanes: Vec<BatchLane<'_>> = loggers
            .iter()
            .zip(dets.iter_mut())
            .map(|(logger, detector)| BatchLane { logger, detector })
            .collect();
        bsteps.clear();
        let s0 = Instant::now();
        plan.step_group(&mut lanes, &mut bsteps);
        t.batch_step_ns += s0.elapsed().as_nanos() as u64;
        t.batch_lanes += sessions as u64;
        t.mismatches += bsteps
            .iter()
            .zip(expected)
            .filter(|(b, &want)| outcome_digest(r as u64, false, b) != want)
            .count() as u64;
    }
    t.step_ns = stats.step_ns;
    t.timed_ticks = stats.timed_ticks;
    t.walk_ns = stats.walk_ns;
    t.timed_walks = stats.timed_walks;
    t
}
