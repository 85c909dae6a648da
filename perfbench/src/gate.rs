//! Correctness gate and lower-layer replay.
//!
//! While the load runs, the load thread folds every outcome it receives
//! into one 64-bit digest per request ([`Digest`]). Afterwards the gate
//! regenerates each session's inputs, replays them through
//! `DataLogger::record` + `AdaptiveDetector::step` on a reference stack
//! built exactly as the server builds it, and compares digests request
//! by request. Any single changed field of any outcome changes the
//! digest, so a mismatch is a failed request; a failed call is one too.
//!
//! The same replay counts the input properties the workloads' cost
//! depends on, and on traced runs times the record, step and walk calls
//! and the wire codec on the workload's actual frames. It steps each
//! request the way the engine's scalar drain steps a drained batch:
//! a session with a deadline cache first prewarms it with one batched
//! walk over the batch's estimates.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use awsad_core::{AdaptiveDetector, AdaptiveStep, DataLogger};
use awsad_linalg::Vector;
use awsad_reach::{Deadline, DeadlineScratch};
use awsad_runtime::{SessionId, TickOutcome};
use awsad_serve::server::session_parts_for_spec;
use awsad_serve::wire::{Frame, SessionSpec, WireOutcome, WireTick};

use crate::inputs::{EpisodePool, SessionStream, StreamTick};

/// FNV-1a over 64-bit words. Each word goes through a bijection of the
/// running state, so two sequences that differ in exactly one word
/// always produce different digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds one outcome's own digest ([`outcome_digest`]).
    pub fn step(&mut self, seq: u64, degraded: bool, s: &AdaptiveStep) {
        self.word(outcome_digest(seq, degraded, s));
    }

    /// Folds a wire outcome through `WireOutcome::to_step`.
    pub fn wire(&mut self, o: &WireOutcome) {
        self.step(o.seq, o.degraded, &o.to_step());
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one outcome: its sequence number, degraded flag and every
/// field of the detector step. A request's digest folds its outcomes'
/// digests in order, so replays can compute them per session.
pub fn outcome_digest(seq: u64, degraded: bool, s: &AdaptiveStep) -> u64 {
    let mut d = Digest::default();
    d.word(seq);
    d.word(degraded as u64);
    d.word(s.step as u64);
    d.word(match s.deadline {
        Deadline::Within(t) => t as u64,
        Deadline::Beyond => u64::MAX,
    });
    d.word(s.window as u64);
    d.word(s.previous_window as u64);
    d.word(s.current_alarm as u64);
    d.word(s.complementary_alarms.len() as u64);
    for &c in &s.complementary_alarms {
        d.word(c as u64);
    }
    d.finish()
}

/// Digest of a state vector's exact bits (for repeat detection).
fn state_key(x: &[f64]) -> u64 {
    let mut d = Digest::default();
    for v in x {
        d.word(v.to_bits());
    }
    d.finish()
}

/// Per-request check tags in fixed-size chunks: the ledger grows by two
/// bytes per request and never reallocates, so it barely moves the
/// process's peak resident set however fast the program runs.
#[derive(Debug, Default)]
struct Tags {
    chunks: Vec<Vec<u16>>,
    len: usize,
}

/// Tags per chunk (32 KiB).
const CHUNK: usize = 16 * 1024;

impl Tags {
    fn push(&mut self, t: u16) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks.last_mut().expect("chunk just ensured").push(t);
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.chunks.iter().flatten().copied()
    }
}

/// A request digest folded to 16 bits.
fn tag_of(d: u64) -> u16 {
    (d ^ d >> 16 ^ d >> 32 ^ d >> 48) as u16
}

/// Extends a stream's chained digest by one request digest.
fn chain(c: &mut u64, d: u64) {
    let mut x = Digest(*c);
    x.word(d);
    *c = x.finish();
}

/// What the load thread hands the gate: a 16-bit tag per request, which
/// counts failed requests, and a full 64-bit digest chained over each
/// stream's requests (a stream is a session; the fleet has one), which
/// a tag collision cannot hide.
#[derive(Debug, Default)]
pub struct Ledger {
    tags: Tags,
    chains: Vec<u64>,
    /// Calls that returned an error (the load stops at the first).
    pub call_errors: u64,
    /// The first error's text.
    pub first_error: Option<String>,
}

impl Ledger {
    /// An empty ledger over `streams` streams.
    pub fn new(streams: usize) -> Ledger {
        Ledger {
            chains: vec![Digest::default().finish(); streams],
            ..Ledger::default()
        }
    }

    /// Records request digest `d` of stream `stream`.
    pub fn record(&mut self, stream: usize, d: u64) {
        self.tags.push(tag_of(d));
        chain(&mut self.chains[stream], d);
    }

    /// Requests recorded.
    pub fn len(&self) -> usize {
        self.tags.len
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.tags.len == 0
    }

    /// Records a failed call and returns its message.
    pub fn fail(&mut self, msg: String) -> String {
        self.call_errors += 1;
        self.first_error.get_or_insert_with(|| msg.clone());
        msg
    }
}

/// The gate's verdict.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Requests checked (completed plus failed calls).
    pub attempted: u64,
    /// Mismatching requests plus failed calls.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
}

impl GateReport {
    /// Compares the replay's `expected` request digests with the ledger;
    /// request `k` belongs to stream `stream_of(k)`.
    pub fn check(
        ledger: &Ledger,
        expected: &[u64],
        stream_of: impl Fn(usize) -> usize,
    ) -> GateReport {
        let mut report = GateReport {
            attempted: ledger.len() as u64 + ledger.call_errors,
            failed: ledger.call_errors,
            first_failure: ledger.first_error.clone(),
        };
        let mut chains = vec![Digest::default().finish(); ledger.chains.len()];
        let mut tagged = vec![0u64; ledger.chains.len()];
        for (k, (got, &want)) in ledger.tags.iter().zip(expected).enumerate() {
            let s = stream_of(k);
            chain(&mut chains[s], want);
            if got != tag_of(want) {
                report.failed += 1;
                tagged[s] += 1;
                report.first_failure.get_or_insert_with(|| {
                    format!("request {k}: outcomes differ from direct stepping")
                });
            }
        }
        report.failed += ledger.len().saturating_sub(expected.len()) as u64;
        for (s, (got, want)) in ledger.chains.iter().zip(&chains).enumerate() {
            if got != want && tagged[s] == 0 {
                report.failed += 1;
                report.first_failure.get_or_insert_with(|| {
                    format!("stream {s}: outcomes differ from direct stepping")
                });
            }
        }
        report
    }
}

/// Input properties and lower-layer timings gathered by a replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    /// Ticks replayed.
    pub ticks: u64,
    /// Walked deadline queries: per-tick walks inside
    /// `AdaptiveDetector::step` plus entries computed by batched
    /// deadline-cache prewarms.
    pub walks: u64,
    /// The part of `walks` computed by batched prewarms.
    pub batched_walks: u64,
    /// Steps a walk from each tick's trusted state advances (deadline
    /// plus the escape step, capped at the horizon), summed over ticks.
    pub walk_steps: u64,
    /// Deadline-cache hits.
    pub cache_hits: u64,
    /// Deadline-cache lookups.
    pub cache_lookups: u64,
    /// Ticks with any alarm.
    pub alarms: u64,
    /// Ticks whose trusted state occurred earlier in the same episode
    /// pass of the same session.
    pub repeats: u64,
    /// Ticks inside an attack window.
    pub attacked: u64,
    /// Ticks per plant state dimension.
    pub dim_ticks: BTreeMap<usize, u64>,
    /// Summed `DataLogger::record` time, ns (traced runs).
    pub record_ns: u64,
    /// Summed `AdaptiveDetector::step` time, ns (traced runs).
    pub step_ns: u64,
    /// Ticks those two sums cover.
    pub timed_ticks: u64,
    /// Summed `checked_deadline_with` time over walked ticks, ns.
    pub walk_ns: u64,
    /// Walks that sum covers.
    pub timed_walks: u64,
    /// Summed `prewarm_deadline_cache` time, ns (traced runs).
    pub prewarm_ns: u64,
    /// Entries those prewarms computed.
    pub timed_batched_walks: u64,
    /// Summed encode time of request and reply frames, ns.
    pub encode_ns: u64,
    /// Summed decode time of request and reply frames, ns.
    pub decode_ns: u64,
    /// Encoded request bytes (length prefix included).
    pub request_bytes: u64,
    /// Encoded reply bytes (length prefix included).
    pub reply_bytes: u64,
    /// Ticks the codec sums cover.
    pub codec_ticks: u64,
    /// Summed `BatchPlan::step_group` time, ns (fleet).
    pub batch_step_ns: u64,
    /// Summed `deadline_batch_refs_with` time, ns (fleet).
    pub batch_walk_ns: u64,
    /// Lanes the two batch sums cover.
    pub batch_lanes: u64,
}

impl ReplayStats {
    /// Adds another replay's counts and timings.
    pub fn merge(&mut self, o: &ReplayStats) {
        self.ticks += o.ticks;
        self.walks += o.walks;
        self.batched_walks += o.batched_walks;
        self.walk_steps += o.walk_steps;
        self.cache_hits += o.cache_hits;
        self.cache_lookups += o.cache_lookups;
        self.alarms += o.alarms;
        self.repeats += o.repeats;
        self.attacked += o.attacked;
        for (d, t) in &o.dim_ticks {
            *self.dim_ticks.entry(*d).or_default() += t;
        }
        self.record_ns += o.record_ns;
        self.step_ns += o.step_ns;
        self.timed_ticks += o.timed_ticks;
        self.walk_ns += o.walk_ns;
        self.timed_walks += o.timed_walks;
        self.prewarm_ns += o.prewarm_ns;
        self.timed_batched_walks += o.timed_batched_walks;
        self.encode_ns += o.encode_ns;
        self.decode_ns += o.decode_ns;
        self.request_bytes += o.request_bytes;
        self.reply_bytes += o.reply_bytes;
        self.codec_ticks += o.codec_ticks;
        self.batch_step_ns += o.batch_step_ns;
        self.batch_walk_ns += o.batch_walk_ns;
        self.batch_lanes += o.batch_lanes;
    }

    /// Mean plant state dimension over ticks.
    pub fn mean_dim(&self) -> f64 {
        let total: u64 = self.dim_ticks.values().sum();
        let weighted: u64 = self.dim_ticks.iter().map(|(d, t)| *d as u64 * t).sum();
        weighted as f64 / total.max(1) as f64
    }

    /// The dimension mix, e.g. `2:40.0% 3:20.0%`.
    pub fn dim_mix(&self) -> String {
        let total: u64 = self.dim_ticks.values().sum();
        self.dim_ticks
            .iter()
            .map(|(d, t)| format!("{d}:{:.1}%", 100.0 * *t as f64 / total.max(1) as f64))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// One reference session of a replay.
pub struct RefSession {
    /// The reference logger.
    pub logger: DataLogger,
    /// The reference detector.
    pub detector: AdaptiveDetector,
    /// Next outcome sequence number.
    pub seq: u64,
    seen: HashSet<u64>,
    scratch: DeadlineScratch,
}

impl RefSession {
    /// Wraps a logger/detector pair.
    pub fn new(logger: DataLogger, detector: AdaptiveDetector) -> Self {
        RefSession {
            logger,
            detector,
            seq: 0,
            seen: HashSet::new(),
            scratch: DeadlineScratch::new(),
        }
    }

    /// The reference stack for a wire session spec, built by the same
    /// function the servers use.
    pub fn for_spec(spec: &SessionSpec) -> Self {
        let (logger, detector, _, _) =
            session_parts_for_spec(spec).expect("benchmark specs are valid");
        RefSession::new(logger, detector)
    }

    /// What the engine's scalar drain does before it steps a batch of
    /// more than one tick: when the session has a deadline cache, one
    /// batched walk fills it for the batch's estimates. Prewarmed
    /// entries equal miss-path entries, so outcomes do not change; each
    /// computed entry counts as a cache miss, as the cache counts it.
    pub fn prewarm(&mut self, batch: &[StreamTick<'_>], timed: bool, stats: &mut ReplayStats) {
        if batch.len() < 2 || !self.detector.has_deadline_cache() {
            return;
        }
        let estimates: Vec<Vector> = batch
            .iter()
            .map(|t| Vector::from_slice(t.estimate))
            .collect();
        let refs: Vec<&Vector> = estimates.iter().collect();
        let t0 = Instant::now();
        let computed = self.detector.prewarm_deadline_cache(&refs) as u64;
        if timed {
            stats.prewarm_ns += t0.elapsed().as_nanos() as u64;
            stats.timed_batched_walks += computed;
        }
        stats.walks += computed;
        stats.batched_walks += computed;
        stats.cache_lookups += computed;
    }

    /// Records one tick and steps the detector, counting properties
    /// into `stats` and, when `timed`, timing record, step and a
    /// separate walk on the same trusted state.
    pub fn tick(
        &mut self,
        estimate: &[f64],
        input: &[f64],
        episode_start: bool,
        attacked: bool,
        timed: bool,
        stats: &mut ReplayStats,
    ) -> AdaptiveStep {
        let (est, inp) = (Vector::from_slice(estimate), Vector::from_slice(input));
        let t0 = timed.then(Instant::now);
        self.logger.record(est, inp);
        let t1 = timed.then(Instant::now);

        let trusted = &self
            .logger
            .trusted_entry(self.detector.previous_window())
            .expect("a tick was just recorded")
            .estimate;
        if episode_start {
            self.seen.clear();
        }
        if !self.seen.insert(state_key(trusted.as_slice())) {
            stats.repeats += 1;
        }
        let trusted = timed.then(|| trusted.clone());

        let before = self.detector.deadline_cache_stats();
        let t2 = timed.then(Instant::now);
        let step = self.detector.step(&self.logger);
        let t3 = timed.then(Instant::now);
        let walked = match (before, self.detector.deadline_cache_stats()) {
            (Some(b), Some(a)) => {
                stats.cache_hits += a.hits - b.hits;
                stats.cache_lookups += (a.hits + a.misses) - (b.hits + b.misses);
                a.misses > b.misses
            }
            // Sessions without a cache re-estimate every tick.
            _ => true,
        };

        if let (Some(t0), Some(t1), Some(t2), Some(t3)) = (t0, t1, t2, t3) {
            stats.record_ns += (t1 - t0).as_nanos() as u64;
            stats.step_ns += (t3 - t2).as_nanos() as u64;
            stats.timed_ticks += 1;
        }
        let horizon = self.detector.estimator().config().max_steps();
        stats.walk_steps += match step.deadline {
            Deadline::Within(t) => (t + 1).min(horizon),
            Deadline::Beyond => horizon,
        } as u64;
        if walked {
            stats.walks += 1;
            if let Some(x0) = trusted {
                let r0 = self.detector.initial_radius();
                let w0 = Instant::now();
                let d = self
                    .detector
                    .estimator()
                    .checked_deadline_with(&x0, r0, &mut self.scratch)
                    .expect("state dimension matches");
                stats.walk_ns += w0.elapsed().as_nanos() as u64;
                stats.timed_walks += 1;
                std::hint::black_box(d);
            }
        }
        stats.ticks += 1;
        stats.alarms += step.alarm() as u64;
        stats.attacked += attacked as u64;
        *stats.dim_ticks.entry(estimate.len()).or_default() += 1;
        self.seq += 1;
        step
    }
}

/// The request schedule shared by a wire workload's load thread and its
/// replay: session `k % sessions` serves request `k`, `batch` ticks
/// each, its inputs drawn from that session's [`SessionStream`].
pub struct WirePlan<'p> {
    /// Spec of each session (index = session).
    pub specs: Vec<SessionSpec>,
    /// Ticks per request.
    pub batch: usize,
    /// The episode pool.
    pub pool: &'p EpisodePool,
    /// Workload seed.
    pub seed: u64,
    /// Seed stream tag of the workload.
    pub stream: u64,
}

impl<'p> WirePlan<'p> {
    /// Every session's input stream, freshly positioned at its start.
    pub fn streams(&self) -> Vec<SessionStream<'p>> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, spec)| SessionStream::new(self.pool, spec.model, self.seed, self.stream, i))
            .collect()
    }

    /// Fills `out` with the next request's ticks for `stream`.
    pub fn fill(stream: &mut SessionStream<'p>, batch: usize, out: &mut Vec<WireTick>) {
        out.clear();
        for _ in 0..batch {
            let t = stream.next_tick();
            out.push(WireTick {
                estimate: t.estimate.to_vec(),
                input: t.input.to_vec(),
            });
        }
    }

    /// Replays `requests` requests through reference stacks and returns
    /// the expected digest of each. When `timed`, also times the codec
    /// on each request's actual `Tick` frame and its `TickOutcomes`
    /// reply.
    pub fn replay(&self, requests: usize, timed: bool) -> (Vec<u64>, ReplayStats) {
        let mut stats = ReplayStats::default();
        let mut streams = self.streams();
        let mut refs: Vec<RefSession> = self.specs.iter().map(RefSession::for_spec).collect();
        let mut expected = Vec::with_capacity(requests);
        let mut batch = Vec::with_capacity(self.batch);
        let mut ticks = Vec::with_capacity(self.batch);
        let mut outcomes = Vec::with_capacity(self.batch);
        for k in 0..requests {
            let s = k % self.specs.len();
            let session = &mut refs[s];
            let stream = &mut streams[s];
            let mut digest = Digest::default();
            ticks.clear();
            outcomes.clear();
            batch.clear();
            batch.extend((0..self.batch).map(|_| stream.next_tick()));
            session.prewarm(&batch, timed, &mut stats);
            for t in &batch {
                let seq = session.seq;
                let step = session.tick(
                    t.estimate,
                    t.input,
                    t.episode_start,
                    t.attacked,
                    timed,
                    &mut stats,
                );
                digest.step(seq, false, &step);
                if timed {
                    ticks.push(WireTick {
                        estimate: t.estimate.to_vec(),
                        input: t.input.to_vec(),
                    });
                    outcomes.push(WireOutcome::from_outcome(&TickOutcome {
                        session: SessionId(s as u64),
                        seq,
                        degraded: false,
                        step,
                    }));
                }
            }
            expected.push(digest.finish());
            if timed {
                let request = Frame::Tick {
                    session: s as u64,
                    ticks: std::mem::take(&mut ticks),
                };
                let reply = Frame::TickOutcomes {
                    session: s as u64,
                    outcomes: std::mem::take(&mut outcomes),
                };
                let (enc, dec, req_len) = time_codec(&request, k as u64);
                let (enc2, dec2, reply_len) = time_codec(&reply, k as u64);
                stats.encode_ns += enc + enc2;
                stats.decode_ns += dec + dec2;
                stats.request_bytes += req_len;
                stats.reply_bytes += reply_len;
                stats.codec_ticks += self.batch as u64;
                if let Frame::Tick { ticks: t, .. } = request {
                    ticks = t;
                }
                if let Frame::TickOutcomes { outcomes: o, .. } = reply {
                    outcomes = o;
                }
            }
        }
        (expected, stats)
    }
}

/// Encodes `frame` with a correlation id and decodes it back; returns
/// `(encode_ns, decode_ns, bytes on the wire incl. the 4-byte length)`.
pub fn time_codec(frame: &Frame, corr: u64) -> (u64, u64, u64) {
    let t0 = Instant::now();
    let payload = frame.encode_with_corr(Some(corr));
    let t1 = Instant::now();
    let decoded = Frame::decode_enveloped(&payload).expect("own frames decode");
    let t2 = Instant::now();
    std::hint::black_box(&decoded);
    (
        (t1 - t0).as_nanos() as u64,
        (t2 - t1).as_nanos() as u64,
        payload.len() as u64 + 4,
    )
}
