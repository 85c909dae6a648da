//! Property-based coverage for the wire protocol: every one of the 20
//! frame types round-trips through its envelope bit-exactly, no
//! proper prefix of a frame decodes, and no byte soup — random or
//! structure-aware-mutated — can panic the decoder.
//!
//! The frame generator lives in `awsad-testkit` (shared with the fuzz
//! binary), seeded here from proptest-drawn `u64`s so each property
//! case replays deterministically.

use awsad_serve::wire::{Frame, ReadFrameError, WireError, DEFAULT_MAX_FRAME_LEN};
use awsad_testkit::wirefuzz::{arbitrary_corr, arbitrary_frame, mutate};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Encode→decode→re-encode is byte-idempotent for every frame
    /// type, correlation ids and hostile float bit patterns included
    /// (bytes, not floats, so NaN payloads are covered).
    #[test]
    fn envelope_round_trips_bit_exactly(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = arbitrary_frame(&mut rng);
        let corr = arbitrary_corr(&mut rng);
        let bytes = frame.encode_with_corr(corr);
        let env = Frame::decode_enveloped(&bytes).expect("clean frame must decode");
        prop_assert_eq!(env.corr, corr);
        prop_assert_eq!(env.frame.type_name(), frame.type_name());
        let again = env.frame.encode_with_corr(env.corr);
        prop_assert_eq!(again, bytes);
    }

    /// Strict decode (no envelope) accepts exactly the corr-less
    /// encoding and flags a trailing correlation id as the 8 trailing
    /// bytes it is.
    #[test]
    fn strict_decode_matches_envelope_discipline(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = arbitrary_frame(&mut rng);
        let bare = frame.encode();
        prop_assert!(Frame::decode(&bare).is_ok());
        let with_corr = frame.encode_with_corr(Some(7));
        prop_assert_eq!(
            Frame::decode(&with_corr).unwrap_err(),
            WireError::TrailingBytes(8)
        );
    }

    /// Decoding arbitrary byte soup never panics (both entry points).
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = Frame::decode(&bytes);
        let _ = Frame::decode_enveloped(&bytes);
    }

    /// Structure-aware mutants of valid frames — the adversarial
    /// neighborhood random bytes almost never reach — never panic
    /// either, and whatever still decodes re-encodes cleanly.
    #[test]
    fn mutated_frames_never_panic(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut payload = arbitrary_frame(&mut rng).encode_with_corr(arbitrary_corr(&mut rng));
        mutate(&mut rng, &mut payload);
        let _ = Frame::decode(&payload);
        if let Ok(env) = Frame::decode_enveloped(&payload) {
            let _ = env.frame.encode_with_corr(env.corr);
        }
    }

    /// The stream layer rejects an oversized declared length before
    /// allocating the payload.
    #[test]
    fn oversized_prefix_rejected_before_allocation(extra in 1u32..=u32::MAX - DEFAULT_MAX_FRAME_LEN) {
        let declared = DEFAULT_MAX_FRAME_LEN + extra;
        let mut stream = Vec::new();
        stream.extend_from_slice(&declared.to_be_bytes());
        stream.extend_from_slice(&[0u8; 8]);
        let got = awsad_serve::wire::read_envelope(
            &mut std::io::Cursor::new(&stream),
            DEFAULT_MAX_FRAME_LEN,
        );
        match got {
            Err(ReadFrameError::Wire(WireError::FrameTooLarge { len, max })) => {
                prop_assert_eq!(len, declared);
                prop_assert_eq!(max, DEFAULT_MAX_FRAME_LEN);
            }
            other => prop_assert!(false, "expected FrameTooLarge, got {:?}", other),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No proper prefix of a frame decodes, through either entry
    /// point: each frame has one layout, so a cut frame is never
    /// mistaken for a shorter one or for one carrying a correlation
    /// id.
    #[test]
    fn no_proper_prefix_decodes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = arbitrary_frame(&mut rng);
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                Frame::decode(&bytes[..cut]).is_err(),
                "{} decoded at cut {}", frame.type_name(), cut
            );
            prop_assert!(
                Frame::decode_enveloped(&bytes[..cut]).is_err(),
                "{} decoded enveloped at cut {}", frame.type_name(), cut
            );
        }
    }
}
