//! Property tests for the wire protocol: serialize→deserialize identity
//! for every frame type, and clean (panic-free, allocation-bounded)
//! errors for corrupt, truncated and oversized inputs.

use im_pir::core::server::phases::{PhaseBreakdown, PhaseTime};
use im_pir::core::wire::{encode_mux, EpochInfo, Frame, ServerInfo, MAX_FRAME_BYTES, WIRE_VERSION};
use im_pir::core::{PirError, QueryShare, ServerResponse, UpdateOutcome};
use im_pir::dpf::gen::generate_keys;
use im_pir::dpf::{PartyId, SelectorVector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of frame kinds `arbitrary_frame` cycles through.
const FRAME_KINDS: u64 = 19;

fn arbitrary_phase_time(rng: &mut StdRng) -> PhaseTime {
    // Finite, non-NaN values only: frame equality is the property under
    // test, not float semantics.
    let wall = (rng.gen_range(0..1_000_000u64) as f64) / 1e4;
    if rng.gen_range(0..2u32) == 0 {
        PhaseTime::host(wall)
    } else {
        PhaseTime::pim(wall, (rng.gen_range(0..1_000_000u64) as f64) / 1e6)
    }
}

fn arbitrary_phases(rng: &mut StdRng) -> PhaseBreakdown {
    PhaseBreakdown {
        eval: arbitrary_phase_time(rng),
        copy_to_pim: arbitrary_phase_time(rng),
        dpxor: arbitrary_phase_time(rng),
        copy_from_pim: arbitrary_phase_time(rng),
        aggregate: arbitrary_phase_time(rng),
    }
}

fn arbitrary_info(rng: &mut StdRng) -> ServerInfo {
    ServerInfo {
        num_records: rng.gen_range(1..1u64 << 40),
        record_size: rng.gen_range(1..1usize << 20),
        shard_count: rng.gen_range(1..4096usize),
        epoch: rng.gen_range(0..u64::MAX),
    }
}

fn arbitrary_shares(rng: &mut StdRng, count: usize) -> Vec<QueryShare> {
    (0..count)
        .map(|_| {
            let domain_bits = rng.gen_range(1..20u32);
            let index = rng.gen_range(0..1u64 << domain_bits);
            let (k1, k2) = generate_keys(domain_bits, index, rng).expect("valid key parameters");
            let key = if rng.gen_range(0..2u32) == 0 { k1 } else { k2 };
            QueryShare::new(rng.gen_range(0..u64::MAX), key)
        })
        .collect()
}

fn arbitrary_responses(rng: &mut StdRng, count: usize) -> Vec<ServerResponse> {
    (0..count)
        .map(|_| {
            let len = rng.gen_range(0..96usize);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
            let party = if rng.gen_range(0..2u32) == 0 {
                PartyId::Server1
            } else {
                PartyId::Server2
            };
            ServerResponse::new(rng.gen_range(0..u64::MAX), party, payload)
        })
        .collect()
}

fn arbitrary_selector(rng: &mut StdRng) -> SelectorVector {
    let bits = rng.gen_range(0..700usize);
    (0..bits).map(|_| rng.gen_range(0..2u32) == 1).collect()
}

/// A deterministic arbitrary frame of the kind selected by `kind`.
fn arbitrary_frame(kind: u64, seed: u64) -> Frame {
    let mut rng = StdRng::seed_from_u64(seed);
    let rng = &mut rng;
    match kind % FRAME_KINDS {
        0 => Frame::Hello {
            version: WIRE_VERSION,
        },
        1 => Frame::HelloAck {
            version: rng.gen_range(0..u16::MAX as u32) as u16,
            info: arbitrary_info(rng),
        },
        2 => {
            let count = rng.gen_range(0..5usize);
            Frame::QueryBatch {
                shares: arbitrary_shares(rng, count),
            }
        }
        3 => {
            let count = rng.gen_range(0..5usize);
            Frame::ResponseBatch {
                epoch: rng.gen_range(0..u64::MAX),
                wall_seconds: (rng.gen_range(0..1_000_000u64) as f64) / 1e5,
                phases: arbitrary_phases(rng),
                responses: arbitrary_responses(rng, count),
            }
        }
        4 => {
            let count = rng.gen_range(0..5usize);
            let updates = (0..count)
                .map(|_| {
                    let len = rng.gen_range(0..64usize);
                    let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
                    (rng.gen_range(0..u64::MAX), bytes)
                })
                .collect();
            Frame::UpdateBatch { updates }
        }
        5 => Frame::UpdateAck {
            outcome: UpdateOutcome {
                records_updated: rng.gen_range(0..1usize << 40),
                bytes_pushed: rng.gen_range(0..u64::MAX),
                simulated_seconds: (rng.gen_range(0..1_000_000u64) as f64) / 1e6,
                epoch: rng.gen_range(0..u64::MAX),
            },
        },
        6 => Frame::InfoRequest,
        7 => Frame::Info {
            info: arbitrary_info(rng),
        },
        8 => Frame::SelectorScan {
            selector: arbitrary_selector(rng),
        },
        9 => {
            let len = rng.gen_range(0..96usize);
            Frame::SelectorResult {
                epoch: rng.gen_range(0..u64::MAX),
                payload: (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect(),
                phases: arbitrary_phases(rng),
            }
        }
        10 => {
            let len = rng.gen_range(0..60usize);
            let message: String = (0..len)
                .map(|_| char::from(rng.gen_range(b' '..b'~')))
                .collect();
            Frame::Error { message }
        }
        11 => Frame::EpochInfoRequest,
        12 => Frame::EpochInfo {
            info: EpochInfo {
                current_epoch: rng.gen_range(0..u64::MAX),
                oldest_replayable: rng.gen_range(0..u64::MAX),
            },
        },
        13 => Frame::UpdateReplayRequest {
            from_epoch: rng.gen_range(0..u64::MAX),
        },
        14 => {
            // Nested batches, including empty ones — both levels of length
            // prefix are exercised.
            let batch_count = rng.gen_range(0..4usize);
            let batches = (0..batch_count)
                .map(|_| {
                    let count = rng.gen_range(0..4usize);
                    (0..count)
                        .map(|_| {
                            let len = rng.gen_range(0..32usize);
                            let bytes: Vec<u8> =
                                (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
                            (rng.gen_range(0..u64::MAX), bytes)
                        })
                        .collect()
                })
                .collect();
            Frame::UpdateReplay { batches }
        }
        15 => Frame::JournalTruncated {
            from_epoch: rng.gen_range(0..u64::MAX),
            oldest_replayable: rng.gen_range(0..u64::MAX),
            current_epoch: rng.gen_range(0..u64::MAX),
        },
        16 => Frame::Goodbye,
        17 => {
            // Wrap any non-Mux kind: nesting is a protocol violation, so
            // the generator skips kind 17 when picking the inner frame.
            let inner = rng.gen_range(0..FRAME_KINDS - 1);
            let inner = if inner == 17 { 18 } else { inner };
            Frame::Mux {
                session: rng.gen_range(0..u32::MAX),
                frame: Box::new(arbitrary_frame(inner, rng.gen())),
            }
        }
        _ => Frame::Overloaded {
            retry_after_ms: rng.gen_range(0..u64::MAX),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Every frame type round-trips byte-exactly through encode/decode.
    #[test]
    fn prop_all_frame_types_roundtrip(kind in 0u64..FRAME_KINDS, seed in any::<u64>()) {
        let frame = arbitrary_frame(kind, seed);
        let encoded = frame.encode().expect("arbitrary frames fit the limit");
        let decoded = Frame::decode(&encoded).expect("own encoding decodes");
        prop_assert_eq!(decoded, frame);
    }

    /// Any truncation of a valid frame decodes to a clean error.
    #[test]
    fn prop_truncations_decode_to_errors(
        kind in 0u64..FRAME_KINDS,
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let frame = arbitrary_frame(kind, seed);
        let encoded = frame.encode().expect("encodes");
        let cut = (cut_seed % encoded.len() as u64) as usize;
        prop_assert!(matches!(
            Frame::decode(&encoded[..cut]),
            Err(PirError::Protocol { .. })
        ));
    }

    /// Flipping any byte never panics: the decoder returns either a clean
    /// error or another *valid* frame (whose re-encoding decodes again).
    #[test]
    fn prop_corruption_never_panics(
        kind in 0u64..FRAME_KINDS,
        seed in any::<u64>(),
        position_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let frame = arbitrary_frame(kind, seed);
        let mut encoded = frame.encode().expect("encodes");
        let position = (position_seed % encoded.len() as u64) as usize;
        encoded[position] ^= flip;
        match Frame::decode(&encoded) {
            Err(PirError::Protocol { .. }) => {}
            Err(other) => prop_assert!(false, "non-protocol error: {other:?}"),
            Ok(reinterpreted) => {
                // A flip that survived decoding (e.g. inside a payload)
                // must have produced a self-consistent frame.
                let reencoded = reinterpreted.encode().expect("valid frames encode");
                prop_assert_eq!(Frame::decode(&reencoded).expect("roundtrips"), reinterpreted);
            }
        }
    }

    /// Hostile outer length prefixes are rejected before any allocation,
    /// for every announced size above the limit.
    #[test]
    fn prop_oversized_length_prefixes_are_rejected(extra in 1u64..u32::MAX as u64 - MAX_FRAME_BYTES as u64) {
        let announced = (MAX_FRAME_BYTES as u64 + extra) as u32;
        let mut bytes = announced.to_le_bytes().to_vec();
        bytes.push(7); // any tag
        prop_assert!(matches!(
            Frame::decode(&bytes),
            Err(PirError::Protocol { .. })
        ));
    }

    /// Hostile *inner* length prefixes (a key or payload claiming more
    /// bytes than the frame holds) are rejected without allocating.
    #[test]
    fn prop_hostile_inner_lengths_are_rejected(claimed in 1_000u32..u32::MAX, id in any::<u64>()) {
        // Hand-build a QueryBatch whose single share claims `claimed` key
        // bytes but carries none.
        let mut body = Vec::new();
        body.push(3u8); // QueryBatch tag
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&id.to_le_bytes());
        body.extend_from_slice(&claimed.to_le_bytes());
        let mut bytes = ((body.len()) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        prop_assert!(matches!(
            Frame::decode(&bytes),
            Err(PirError::Protocol { .. })
        ));
    }

    /// A hostile `UpdateReplay` claiming huge batch/entry counts it does
    /// not carry is rejected cleanly — the nested length prefixes cannot
    /// drive allocation beyond the frame's actual bytes.
    #[test]
    fn prop_hostile_replay_counts_are_rejected(claimed in 1_000u32..u32::MAX) {
        let mut body = Vec::new();
        body.push(16u8); // UpdateReplay tag
        body.extend_from_slice(&claimed.to_le_bytes()); // batches "present"
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        prop_assert!(matches!(
            Frame::decode(&bytes),
            Err(PirError::Protocol { .. })
        ));
    }

    /// The encoder refuses to put a `Mux` inside a `Mux` for any pair of
    /// session ids — the violation is caught before bytes hit the wire.
    #[test]
    fn prop_encoder_refuses_nested_mux(outer in any::<u32>(), inner in any::<u32>()) {
        let nested = Frame::Mux {
            session: outer,
            frame: Box::new(Frame::Mux {
                session: inner,
                frame: Box::new(Frame::Goodbye),
            }),
        };
        prop_assert!(matches!(nested.encode(), Err(PirError::Protocol { .. })));
    }

    /// Hand-built wire bytes nesting a `Mux` inside a `Mux` decode to a
    /// clean protocol error for any session ids — never a panic.
    #[test]
    fn prop_decoder_rejects_nested_mux_bytes(outer in any::<u32>(), inner in any::<u32>()) {
        let mut body = Vec::new();
        body.push(18u8); // Mux tag
        body.extend_from_slice(&outer.to_le_bytes());
        body.push(18u8); // inner Mux tag — hostile
        body.extend_from_slice(&inner.to_le_bytes());
        body.push(12u8); // innermost Goodbye
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        prop_assert!(matches!(
            Frame::decode(&bytes),
            Err(PirError::Protocol { .. })
        ));
    }

    /// A `Mux` wrapper whose inner frame claims more bytes than the
    /// connection delivered is rejected without allocating: the outer
    /// length prefix bounds the inner frame too.
    #[test]
    fn prop_hostile_mux_inner_lengths_are_rejected(
        session in any::<u32>(),
        claimed in 1_000u32..u32::MAX,
        id in any::<u64>(),
    ) {
        let mut body = Vec::new();
        body.push(18u8); // Mux tag
        body.extend_from_slice(&session.to_le_bytes());
        body.push(3u8); // inner QueryBatch tag
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&id.to_le_bytes());
        body.extend_from_slice(&claimed.to_le_bytes()); // key bytes it does not carry
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        prop_assert!(matches!(
            Frame::decode(&bytes),
            Err(PirError::Protocol { .. })
        ));
    }

    /// A `Mux` cut anywhere — even mid-session-id, before the inner tag —
    /// decodes to a clean protocol error.
    #[test]
    fn prop_truncated_mux_is_rejected(
        session in any::<u32>(),
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let frame = Frame::Mux {
            session,
            frame: Box::new(arbitrary_frame(seed % 17, seed)),
        };
        let encoded = frame.encode().expect("encodes");
        let cut = (cut_seed % encoded.len() as u64) as usize;
        prop_assert!(matches!(
            Frame::decode(&encoded[..cut]),
            Err(PirError::Protocol { .. })
        ));
    }

    /// A mux session's header put in front of an encoded plain frame is
    /// byte-identical to encoding the `Mux` frame itself, for every frame
    /// kind and session id; a nested `Mux` or a partial frame is refused.
    #[test]
    fn prop_mux_header_matches_the_mux_frame_encoding(
        kind in 0u64..FRAME_KINDS,
        seed in any::<u64>(),
        session in any::<u32>(),
    ) {
        let frame = arbitrary_frame(kind, seed);
        let plain = frame.encode().expect("arbitrary frames fit the limit");
        let wrapped = encode_mux(session, &plain);
        let muxed = Frame::Mux { session, frame: Box::new(frame) }.encode();
        if kind == 17 {
            prop_assert!(matches!(wrapped, Err(PirError::Protocol { .. })));
            prop_assert!(matches!(muxed, Err(PirError::Protocol { .. })));
        } else {
            prop_assert_eq!(wrapped.expect("a plain frame wraps"), muxed.expect("encodes"));
        }
        prop_assert!(matches!(
            encode_mux(session, &plain[..plain.len() - 1]),
            Err(PirError::Protocol { .. })
        ));
    }

    /// Trailing garbage after a well-formed body is rejected for the new
    /// epoch/replay frames (the reader's `finish` check).
    #[test]
    fn prop_trailing_garbage_after_new_frames_is_rejected(
        kind in 11u64..16u64,
        seed in any::<u64>(),
        garbage in 1usize..16,
    ) {
        let frame = arbitrary_frame(kind, seed);
        let mut encoded = frame.encode().expect("encodes");
        // Extend the body AND fix the outer length so only the *inner*
        // trailing-garbage check can catch it.
        encoded.extend(std::iter::repeat_n(0xA5u8, garbage));
        let new_len = (encoded.len() - 4) as u32;
        encoded[..4].copy_from_slice(&new_len.to_le_bytes());
        prop_assert!(matches!(
            Frame::decode(&encoded),
            Err(PirError::Protocol { .. })
        ));
    }
}

#[test]
fn overloaded_trailing_garbage_is_rejected() {
    let frame = Frame::Overloaded { retry_after_ms: 25 };
    let mut encoded = frame.encode().expect("encodes");
    encoded.push(0xA5);
    let new_len = (encoded.len() - 4) as u32;
    encoded[..4].copy_from_slice(&new_len.to_le_bytes());
    assert!(matches!(
        Frame::decode(&encoded),
        Err(PirError::Protocol { .. })
    ));
}

#[test]
fn empty_input_and_empty_length_are_rejected() {
    assert!(matches!(Frame::decode(&[]), Err(PirError::Protocol { .. })));
    let mut zero = 0u32.to_le_bytes().to_vec();
    zero.push(1);
    assert!(matches!(
        Frame::decode(&zero),
        Err(PirError::Protocol { .. })
    ));
}
