//! A structure-aware fuzzer for the AWSAD wire protocol.
//!
//! Random bytes almost never get past the magic/version header, so
//! the fuzzer starts from **valid** frames — every variant, with
//! hostile float bit patterns and random correlation ids — and then
//! applies protocol-shaped mutations: bit flips, truncations at
//! arbitrary depths, type-byte swaps, header corruption, appended
//! garbage (which doubles as envelope corruption, since a trailing
//! 8 bytes *is* the correlation-id encoding), and count fields
//! rewritten to hostile allocation sizes.
//!
//! Properties asserted, per iteration:
//!
//! * a clean encode→decode→re-encode cycle is **byte-idempotent**
//!   (bit patterns of float specials included — this is equality on
//!   bytes, not on floats, so NaN payloads are covered too);
//! * decoding any mutant never panics, and whatever decodes `Ok` must
//!   re-encode without panicking;
//! * a declared length beyond the receiver's limit is rejected
//!   **before** allocation ([`WireError::FrameTooLarge`]), and a
//!   count field promising more elements than the remaining bytes is
//!   rejected ([`WireError::Truncated`]) instead of allocating.
//!
//! Cross-connection poisoning (a malformed frame on one connection
//! harming another) is checked separately against a live server —
//! see [`check_no_cross_connection_poisoning`]. For the server's
//! incremental decoder there is a sharper variant,
//! [`check_torn_frame_interleaving`]: every request torn into 1–7
//! byte chunks and round-robin interleaved across connections on the
//! same shard, so the decoder is forced to park and resume partial
//! frames for several connections at once while hostile bytes stream
//! in beside them.

use std::io::{Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};

use awsad_serve::client::Client;
use awsad_serve::wire::{
    read_envelope, Frame, SessionSpec, WireError, WireLatency, WireMetrics, WireOutcome,
    WireRecalibration, WireSessionState, WireTick, DEFAULT_MAX_FRAME_LEN,
};
use rand::rngs::StdRng;
use rand::RngExt as _;

use crate::scenario::Scenario;

/// A wire-fuzz property violation, with enough detail to reproduce.
#[derive(Debug, Clone)]
pub struct FuzzViolation {
    /// Which property broke.
    pub property: &'static str,
    /// Human-readable detail (frame type, mutation, hex around the
    /// failure).
    pub detail: String,
}

impl std::fmt::Display for FuzzViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wire-fuzz violation [{}]: {}",
            self.property, self.detail
        )
    }
}

impl std::error::Error for FuzzViolation {}

/// A random f64 biased toward hostile bit patterns: specials and raw
/// bit noise alongside ordinary magnitudes.
fn arbitrary_f64(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..8u32) {
        0 => f64::from_bits(rng.random_range(0..=u64::MAX)),
        1 => f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => -0.0,
        5 => f64::MIN_POSITIVE / 2.0, // subnormal
        _ => rng.random_range(-1e6..=1e6),
    }
}

fn arbitrary_f64s(rng: &mut StdRng, max_len: usize) -> Vec<f64> {
    let len = rng.random_range(0..=max_len);
    (0..len).map(|_| arbitrary_f64(rng)).collect()
}

fn arbitrary_string(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.random_range(0..=max_len);
    (0..len)
        .map(|_| match rng.random_range(0..4u32) {
            0 => char::from(rng.random_range(b'a'..=b'z')),
            1 => char::from(rng.random_range(b'!'..=b'~')),
            2 => '\u{00e9}',
            _ => '\u{1F980}',
        })
        .collect()
}

fn arbitrary_tick(rng: &mut StdRng) -> WireTick {
    WireTick {
        estimate: arbitrary_f64s(rng, 6),
        input: arbitrary_f64s(rng, 3),
    }
}

fn arbitrary_outcome(rng: &mut StdRng) -> WireOutcome {
    WireOutcome {
        seq: rng.random_range(0..=u64::MAX),
        degraded: rng.random_bool(0.5),
        step: rng.random_range(0..=u64::MAX),
        deadline: if rng.random_bool(0.5) {
            Some(rng.random_range(0..=u64::MAX))
        } else {
            None
        },
        window: rng.random_range(0..=u64::MAX),
        previous_window: rng.random_range(0..=u64::MAX),
        current_alarm: rng.random_bool(0.5),
        complementary_alarms: (0..rng.random_range(0..4usize))
            .map(|_| rng.random_range(0..=u64::MAX))
            .collect(),
    }
}

fn arbitrary_spec(rng: &mut StdRng) -> SessionSpec {
    SessionSpec {
        model: rng.random_range(0..=u8::MAX),
        max_window: rng.random_range(0..=u32::MAX),
        min_window: rng.random_range(0..=u32::MAX),
        threshold: arbitrary_f64s(rng, 6),
        cache_capacity: rng.random_range(0..=u32::MAX),
        output_rows: rng.random_range(0..=u32::MAX),
        output_map: arbitrary_f64s(rng, 12),
    }
}

fn arbitrary_latency(rng: &mut StdRng) -> WireLatency {
    WireLatency {
        count: rng.random_range(0..=u64::MAX),
        mean_ns: arbitrary_f64(rng),
        p50_bound_ns: if rng.random_bool(0.5) {
            Some(rng.random_range(0..=u64::MAX))
        } else {
            None
        },
        p99_bound_ns: if rng.random_bool(0.5) {
            Some(rng.random_range(0..=u64::MAX))
        } else {
            None
        },
        overflow: rng.random_range(0..=u64::MAX),
    }
}

fn arbitrary_metrics(rng: &mut StdRng) -> WireMetrics {
    WireMetrics {
        counters: (0..rng.random_range(0..30usize))
            .map(|_| (arbitrary_string(rng, 24), rng.random_range(0..=u64::MAX)))
            .collect(),
        latencies: (0..rng.random_range(0..4usize))
            .map(|_| (arbitrary_string(rng, 12), arbitrary_latency(rng)))
            .collect(),
    }
}

/// A random recalibration block with wire-consistent dimensions (the
/// decoder rejects zero dims and wrong element counts, so only
/// internally consistent blocks round-trip) and hostile float values.
fn arbitrary_recalibration(rng: &mut StdRng) -> WireRecalibration {
    let state_dim = rng.random_range(1..=3u32);
    let input_dim = rng.random_range(1..=2u32);
    let n = state_dim as usize;
    let m = input_dim as usize;
    WireRecalibration {
        state_dim,
        input_dim,
        a: (0..n * n).map(|_| arbitrary_f64(rng)).collect(),
        b: (0..n * m).map(|_| arbitrary_f64(rng)).collect(),
        count: rng.random_range(0..=u64::MAX),
    }
}

fn arbitrary_state(rng: &mut StdRng) -> WireSessionState {
    let entries = (0..rng.random_range(0..4usize))
        .map(|_| awsad_serve::wire::WireLogEntry {
            step: rng.random_range(0..=u64::MAX),
            estimate: arbitrary_f64s(rng, 4),
            input: arbitrary_f64s(rng, 2),
            prediction: if rng.random_bool(0.5) {
                Some(arbitrary_f64s(rng, 4))
            } else {
                None
            },
            residual: arbitrary_f64s(rng, 4),
        })
        .collect();
    WireSessionState {
        prev_window: rng.random_range(0..=u64::MAX),
        steps_since_estimate: rng.random_range(0..=u64::MAX),
        initial_radius: arbitrary_f64(rng),
        complementary_enabled: rng.random_bool(0.5),
        reestimation_period: rng.random_range(0..=u64::MAX),
        cached_deadline: match rng.random_range(0..3u32) {
            0 => None,
            1 => Some(None),
            _ => Some(Some(rng.random_range(0..=u64::MAX))),
        },
        next_step: rng.random_range(0..=u64::MAX),
        next_seq: rng.random_range(0..=u64::MAX),
        entries,
        recalibration: if rng.random_bool(0.5) {
            Some(arbitrary_recalibration(rng))
        } else {
            None
        },
    }
}

/// A random valid frame covering every one of the protocol's 20
/// variants, with hostile float bit patterns throughout.
pub fn arbitrary_frame(rng: &mut StdRng) -> Frame {
    match rng.random_range(0..20u32) {
        0 => Frame::Hello {
            client: arbitrary_string(rng, 24),
        },
        1 => Frame::HelloAck {
            server: arbitrary_string(rng, 24),
        },
        2 => Frame::OpenSession(arbitrary_spec(rng)),
        3 => Frame::SessionOpened {
            session: rng.random_range(0..=u64::MAX),
            state_dim: rng.random_range(0..=u32::MAX),
            input_dim: rng.random_range(0..=u32::MAX),
        },
        4 => Frame::Tick {
            session: rng.random_range(0..=u64::MAX),
            ticks: (0..rng.random_range(0..4usize))
                .map(|_| arbitrary_tick(rng))
                .collect(),
        },
        5 => Frame::TickOutcomes {
            session: rng.random_range(0..=u64::MAX),
            outcomes: (0..rng.random_range(0..4usize))
                .map(|_| arbitrary_outcome(rng))
                .collect(),
        },
        6 => Frame::CloseSession {
            session: rng.random_range(0..=u64::MAX),
        },
        7 => Frame::SessionClosed {
            session: rng.random_range(0..=u64::MAX),
        },
        8 => Frame::MetricsQuery,
        9 => Frame::MetricsReply(arbitrary_metrics(rng)),
        10 => Frame::SnapshotSession {
            session: rng.random_range(0..=u64::MAX),
        },
        11 => Frame::SessionSnapshot {
            session: rng.random_range(0..=u64::MAX),
            state: arbitrary_state(rng),
        },
        12 => Frame::RestoreSession {
            spec: arbitrary_spec(rng),
            state: arbitrary_state(rng),
        },
        13 => Frame::Error {
            code: awsad_serve::wire::ErrorCode::Internal,
            message: arbitrary_string(rng, 32),
        },
        14 => Frame::ReplicateSnapshot {
            key: rng.random_range(0..=u64::MAX),
            generation: rng.random_range(0..=u64::MAX),
            spec: arbitrary_spec(rng),
            state: arbitrary_state(rng),
        },
        15 => Frame::ReplicateAck {
            key: rng.random_range(0..=u64::MAX),
            generation: rng.random_range(0..=u64::MAX),
        },
        16 => Frame::PromoteSession {
            key: rng.random_range(0..=u64::MAX),
        },
        17 => {
            // The decoder enforces dims × element counts, so only
            // consistent shapes round-trip; the values stay hostile.
            let r = arbitrary_recalibration(rng);
            Frame::Recalibrate {
                session: rng.random_range(0..=u64::MAX),
                state_dim: r.state_dim,
                input_dim: r.input_dim,
                a: r.a,
                b: r.b,
            }
        }
        18 => Frame::RecalibrateAck {
            session: rng.random_range(0..=u64::MAX),
            recal_count: rng.random_range(0..=u64::MAX),
        },
        _ => Frame::RingUpdate {
            epoch: rng.random_range(0..=u64::MAX),
            members: (0..rng.random_range(0..4usize))
                .map(|_| awsad_serve::wire::RingMember {
                    shard: rng.random_range(0..=u32::MAX),
                    addr: arbitrary_string(rng, 20),
                })
                .collect(),
        },
    }
}

/// A random correlation id, or none (a corr-less frame).
pub fn arbitrary_corr(rng: &mut StdRng) -> Option<u64> {
    if rng.random_bool(0.5) {
        Some(rng.random_range(0..=u64::MAX))
    } else {
        None
    }
}

/// Applies one structure-aware mutation to an encoded payload and
/// returns its description.
pub fn mutate(rng: &mut StdRng, payload: &mut Vec<u8>) -> String {
    match rng.random_range(0..7u32) {
        0 => {
            if payload.is_empty() {
                return "noop (empty payload)".into();
            }
            let pos = rng.random_range(0..payload.len());
            let bit = rng.random_range(0..8u32);
            payload[pos] ^= 1 << bit;
            format!("bit flip at byte {pos} bit {bit}")
        }
        1 => {
            let cut = rng.random_range(0..=payload.len());
            payload.truncate(cut);
            format!("truncate to {cut} bytes")
        }
        2 => {
            let extra = rng.random_range(1..=9usize);
            for _ in 0..extra {
                payload.push(rng.random_range(0..=u8::MAX));
            }
            format!("append {extra} garbage bytes")
        }
        3 => {
            if payload.len() > 6 {
                let t = rng.random_range(0..=u8::MAX);
                payload[6] = t;
                format!("type byte swapped to {t:#04x}")
            } else {
                "noop (no type byte)".into()
            }
        }
        4 => {
            if payload.len() >= 6 {
                let pos = rng.random_range(0..6usize);
                payload[pos] = rng.random_range(0..=u8::MAX);
                format!("header corruption at byte {pos}")
            } else {
                "noop (no header)".into()
            }
        }
        5 => {
            // A hostile allocation size: rewrite 4 aligned-ish bytes
            // somewhere in the body to a huge count.
            if payload.len() > 11 {
                let pos = rng.random_range(7..payload.len() - 4);
                payload[pos..pos + 4].copy_from_slice(&u32::MAX.to_be_bytes());
                format!("count field at {pos} rewritten to u32::MAX")
            } else {
                "noop (body too short)".into()
            }
        }
        _ => {
            // Envelope corruption: exactly 8 trailing bytes decode as
            // a correlation id, so adding or stripping them flips the
            // envelope shape.
            if payload.len() > 8 && rng.random_bool(0.5) {
                payload.truncate(payload.len() - 8);
                "strip 8 trailing bytes (envelope)".into()
            } else {
                for _ in 0..8 {
                    payload.push(rng.random_range(0..=u8::MAX));
                }
                "append 8 trailing bytes (fake correlation id)".into()
            }
        }
    }
}

fn decode_both(payload: &[u8]) -> Result<(), String> {
    let strict = catch_unwind(AssertUnwindSafe(|| Frame::decode(payload)));
    if strict.is_err() {
        return Err("Frame::decode panicked".into());
    }
    let env = catch_unwind(AssertUnwindSafe(|| Frame::decode_enveloped(payload)));
    match env {
        Err(_) => Err("Frame::decode_enveloped panicked".into()),
        Ok(Ok(env)) => {
            let reencode = catch_unwind(AssertUnwindSafe(|| env.frame.encode_with_corr(env.corr)));
            match reencode {
                Err(_) => Err("re-encode of decoded mutant panicked".into()),
                Ok(_) => Ok(()),
            }
        }
        Ok(Err(_)) => Ok(()),
    }
}

/// One fuzz iteration: generate a valid enveloped frame, prove the
/// clean cycle byte-idempotent, then decode a mutant of it.
///
/// # Errors
///
/// A [`FuzzViolation`] naming the property and the mutation.
pub fn fuzz_frame_once(rng: &mut StdRng) -> Result<(), FuzzViolation> {
    let frame = arbitrary_frame(rng);
    let corr = arbitrary_corr(rng);
    let name = frame.type_name();
    let bytes = frame.encode_with_corr(corr);

    let env = Frame::decode_enveloped(&bytes).map_err(|e| FuzzViolation {
        property: "clean-decode",
        detail: format!("{name} (corr {corr:?}) failed to decode: {e}"),
    })?;
    if env.corr != corr {
        return Err(FuzzViolation {
            property: "corr-round-trip",
            detail: format!("{name}: corr {corr:?} decoded as {:?}", env.corr),
        });
    }
    let bytes2 = env.frame.encode_with_corr(env.corr);
    if bytes2 != bytes {
        return Err(FuzzViolation {
            property: "byte-idempotence",
            detail: format!(
                "{name}: re-encode differs ({} vs {} bytes)",
                bytes2.len(),
                bytes.len()
            ),
        });
    }

    let mut mutant = bytes;
    let mutation = mutate(rng, &mut mutant);
    decode_both(&mutant).map_err(|what| FuzzViolation {
        property: "mutant-decode",
        detail: format!("{name} after {mutation}: {what}"),
    })?;
    Ok(())
}

/// Allocation-guard checks on the stream layer: a declared length
/// beyond `max_len` must be rejected before the payload allocation,
/// and a count field lying about its element count must decode to
/// [`WireError::Truncated`], not an attempted huge allocation.
pub fn check_allocation_guards(rng: &mut StdRng) -> Result<(), FuzzViolation> {
    // Lying length prefix: 4 GiB-ish declared, tiny max.
    let declared = rng.random_range(2u32..=u32::MAX);
    let max_len = rng.random_range(1..declared);
    let mut stream = Vec::new();
    stream.extend_from_slice(&declared.to_be_bytes());
    stream.extend_from_slice(&[0u8; 16]);
    match read_envelope(&mut Cursor::new(&stream), max_len) {
        Err(awsad_serve::wire::ReadFrameError::Wire(WireError::FrameTooLarge { len, max })) => {
            if len != declared || max != max_len {
                return Err(FuzzViolation {
                    property: "prefix-guard",
                    detail: format!(
                        "FrameTooLarge reported {len}/{max}, expected {declared}/{max_len}"
                    ),
                });
            }
        }
        other => {
            return Err(FuzzViolation {
                property: "prefix-guard",
                detail: format!("oversized prefix produced {other:?}"),
            });
        }
    }

    // Hostile element count: a Tick frame whose tick count promises
    // ~4 billion elements against a handful of remaining bytes.
    let frame = Frame::Tick {
        session: rng.random_range(0..=u64::MAX),
        ticks: vec![arbitrary_tick(rng)],
    };
    let mut payload = frame.encode();
    // Payload layout: magic(4) + version(2) + type(1) + session(8) +
    // tick count u32 at offset 15.
    payload[15..19].copy_from_slice(&u32::MAX.to_be_bytes());
    match Frame::decode(&payload) {
        Err(WireError::Truncated) => Ok(()),
        other => Err(FuzzViolation {
            property: "count-guard",
            detail: format!("hostile tick count produced {other:?}"),
        }),
    }
}

/// Proves a malformed blob on one connection cannot poison another:
/// connection B opens a real session and ticks; connection A writes
/// `garbage` (framed under an honest length prefix) and dies; B's
/// remaining stream must match `expected` exactly.
///
/// The scenario must be registry-family (serve-expressible).
pub fn check_no_cross_connection_poisoning(
    scenario: &Scenario,
    addr: SocketAddr,
    garbage: &[u8],
) -> Result<(), FuzzViolation> {
    let spec = scenario
        .spec
        .as_ref()
        .expect("poisoning check needs a registry scenario");
    let fail = |detail: String| FuzzViolation {
        property: "cross-connection-isolation",
        detail,
    };
    let expected = crate::oracle::direct_steps(scenario);

    let mut client = Client::connect(addr).map_err(|e| fail(format!("connect B: {e}")))?;
    let session = client
        .open_session(spec)
        .map_err(|e| fail(format!("open B: {e}")))?;
    let half = scenario.trace.len() / 2;
    let mut outcomes = client
        .tick_batch(session.id, &scenario.trace[..half])
        .map_err(|e| fail(format!("tick B first half: {e}")))?;

    // Connection A: an honest length prefix framing hostile bytes.
    {
        let mut attacker = TcpStream::connect(addr).map_err(|e| fail(format!("connect A: {e}")))?;
        let len = (garbage.len() as u32).to_be_bytes();
        attacker
            .write_all(&len)
            .and_then(|()| attacker.write_all(garbage))
            .map_err(|e| fail(format!("write A: {e}")))?;
        // The server answers a decode failure by dropping A; nothing
        // to read back reliably, so just let A fall out of scope.
    }

    outcomes.extend(
        client
            .tick_batch(session.id, &scenario.trace[half..])
            .map_err(|e| fail(format!("tick B second half: {e}")))?,
    );
    client
        .close_session(session.id)
        .map_err(|e| fail(format!("close B: {e}")))?;

    if outcomes.len() != expected.len() {
        return Err(fail(format!(
            "B got {} outcomes, expected {}",
            outcomes.len(),
            expected.len()
        )));
    }
    for (i, (o, want)) in outcomes.iter().zip(&expected).enumerate() {
        if o.to_step() != *want {
            return Err(fail(format!(
                "B's tick {i} diverged after attacker garbage: {:?} vs {want:?}",
                o.to_step()
            )));
        }
    }
    Ok(())
}

/// The full on-wire image of a frame: u32 BE length prefix + payload.
fn framed(frame: &Frame) -> Vec<u8> {
    let payload = frame.encode();
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend(payload);
    out
}

/// Round-robin drains byte lanes onto their streams in 1–7 byte torn
/// chunks, so every frame boundary lands mid-chunk on some connection
/// while the others' partial frames sit parked in the decoder.
///
/// Write failures on lanes at index `fatal_below` or above are
/// tolerated (the server is entitled to drop a poisoned connection
/// mid-write); failures below it are reported.
fn drain_torn(
    rng: &mut StdRng,
    streams: &[TcpStream],
    lanes: &mut [(usize, Vec<u8>, usize)],
    fatal_below: usize,
) -> Result<(), String> {
    loop {
        let mut wrote = false;
        for (idx, bytes, off) in lanes.iter_mut() {
            if *off >= bytes.len() {
                continue;
            }
            let take = rng.random_range(1..=7usize).min(bytes.len() - *off);
            match (&streams[*idx]).write_all(&bytes[*off..*off + take]) {
                Ok(()) => *off += take,
                Err(_) if *idx >= fatal_below => *off = bytes.len(),
                Err(e) => return Err(format!("torn write on connection {idx}: {e}")),
            }
            wrote = true;
        }
        if !wrote {
            return Ok(());
        }
    }
}

/// Torn frames interleaved across connections on the same shard: two
/// honest connections stream the scenario with every request split
/// into 1–7 byte chunks, round-robin interleaved with each other
/// **and** with a third connection whose honestly-prefixed hostile
/// bytes are torn the same way. The decoder must park and resume each
/// connection's partial frame without leaking state between slots:
/// both honest streams must equal the direct reference bit-for-bit,
/// and only the garbage connection may die.
///
/// Point `addr` at a one-shard server, so one thread decodes all
/// three connections.
pub fn check_torn_frame_interleaving(
    scenario: &Scenario,
    addr: SocketAddr,
    rng: &mut StdRng,
) -> Result<(), FuzzViolation> {
    const VALID: usize = 2;
    let spec = scenario
        .spec
        .as_ref()
        .expect("torn-frame check needs a registry scenario");
    let fail = |detail: String| FuzzViolation {
        property: "torn-frame-interleaving",
        detail,
    };
    let expected = crate::oracle::direct_steps(scenario);

    let mut streams = Vec::with_capacity(VALID + 1);
    for i in 0..=VALID {
        let s = TcpStream::connect(addr).map_err(|e| fail(format!("connect {i}: {e}")))?;
        let _ = s.set_nodelay(true);
        streams.push(s);
    }

    // Hostile bytes under an honest length prefix; the first byte
    // breaks the magic so the frame can never accidentally decode.
    let mut garbage = vec![0u8; rng.random_range(8..64usize)];
    for b in garbage.iter_mut() {
        *b = rng.random_range(0..=u8::MAX);
    }
    garbage[0] = 0xFF;
    let mut attacker_bytes = (garbage.len() as u32).to_be_bytes().to_vec();
    attacker_bytes.extend(garbage);

    // Wave 0: both session opens torn and interleaved with the
    // garbage connection's bytes.
    let open = framed(&Frame::OpenSession(spec.clone()));
    let mut lanes = vec![
        (0usize, open.clone(), 0usize),
        (1, open, 0),
        (VALID, attacker_bytes, 0),
    ];
    drain_torn(rng, &streams, &mut lanes, VALID).map_err(fail)?;

    let mut sessions = [0u64; VALID];
    for (i, sess) in sessions.iter_mut().enumerate() {
        match read_envelope(&mut (&streams[i]), DEFAULT_MAX_FRAME_LEN) {
            Ok(env) => match env.frame {
                Frame::SessionOpened { session, .. } => *sess = session,
                other => {
                    return Err(fail(format!(
                        "connection {i}: open answered {}",
                        other.type_name()
                    )))
                }
            },
            Err(e) => return Err(fail(format!("connection {i}: open reply: {e}"))),
        }
    }

    // The garbage connection must die alone: an error frame, or a
    // drop with nothing readable.
    if let Ok(env) = read_envelope(&mut (&streams[VALID]), DEFAULT_MAX_FRAME_LEN) {
        if !matches!(env.frame, Frame::Error { .. }) {
            return Err(fail(format!(
                "garbage connection got {} instead of an error",
                env.frame.type_name()
            )));
        }
    }

    // Tick waves: at most 8 in-flight batches per connection so the
    // pipeline never trips the server's request-queue backpressure.
    let chunks: Vec<&[WireTick]> = scenario.trace.chunks(16).collect();
    let mut outcomes: Vec<Vec<WireOutcome>> = vec![Vec::new(); VALID];
    for wave in chunks.chunks(8) {
        let mut lanes: Vec<(usize, Vec<u8>, usize)> = (0..VALID)
            .map(|i| {
                let mut bytes = Vec::new();
                for ticks in wave {
                    bytes.extend(framed(&Frame::Tick {
                        session: sessions[i],
                        ticks: ticks.to_vec(),
                    }));
                }
                (i, bytes, 0)
            })
            .collect();
        drain_torn(rng, &streams, &mut lanes, VALID).map_err(fail)?;
        for (i, got) in outcomes.iter_mut().enumerate() {
            for _ in 0..wave.len() {
                match read_envelope(&mut (&streams[i]), DEFAULT_MAX_FRAME_LEN) {
                    Ok(env) => match env.frame {
                        Frame::TickOutcomes {
                            session,
                            outcomes: batch,
                        } if session == sessions[i] => got.extend(batch),
                        other => {
                            return Err(fail(format!(
                                "connection {i}: tick answered {}",
                                other.type_name()
                            )))
                        }
                    },
                    Err(e) => return Err(fail(format!("connection {i}: tick reply: {e}"))),
                }
            }
        }
    }

    // Close both sessions, torn the same way.
    let mut lanes: Vec<(usize, Vec<u8>, usize)> = (0..VALID)
        .map(|i| {
            (
                i,
                framed(&Frame::CloseSession {
                    session: sessions[i],
                }),
                0,
            )
        })
        .collect();
    drain_torn(rng, &streams, &mut lanes, VALID).map_err(fail)?;
    for (i, sess) in sessions.iter().enumerate() {
        match read_envelope(&mut (&streams[i]), DEFAULT_MAX_FRAME_LEN) {
            Ok(env) => match env.frame {
                Frame::SessionClosed { session } if session == *sess => {}
                other => {
                    return Err(fail(format!(
                        "connection {i}: close answered {}",
                        other.type_name()
                    )))
                }
            },
            Err(e) => return Err(fail(format!("connection {i}: close reply: {e}"))),
        }
    }

    for (i, got) in outcomes.iter().enumerate() {
        if got.len() != expected.len() {
            return Err(fail(format!(
                "connection {i} got {} outcomes, expected {}",
                got.len(),
                expected.len()
            )));
        }
        for (t, (o, want)) in got.iter().zip(&expected).enumerate() {
            if o.to_step() != *want {
                return Err(fail(format!(
                    "connection {i} tick {t} diverged under torn interleaving: {:?} vs {want:?}",
                    o.to_step()
                )));
            }
        }
    }
    Ok(())
}
