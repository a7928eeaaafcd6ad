//! Property-based tests of the EKN2 wire codec: encode ∘ decode identity
//! over arbitrary frames, plus exhaustive corruption sweeps — every
//! truncation point and every single-bit flip of every generated frame
//! must be *detected*, never decoded as a (different) frame. The
//! admission frames (`Bind`, `Bound`, `BindReject`), which carry the
//! widest payloads, get a sweep of their own, and batches appended into
//! one buffer by `encode_frame_into` get a truncation sweep of theirs.

use ekbd_net::wire::{decode_frame, encode_frame, encode_frame_into, AdmitPath, Frame};
use proptest::prelude::*;

fn admit_path(b: u8) -> AdmitPath {
    match b {
        0 => AdmitPath::Fresh,
        1 => AdmitPath::Resumed,
        _ => AdmitPath::Rejoined,
    }
}

/// Strategy: an admission frame with full-width credentials.
fn admission_frame() -> impl Strategy<Value = Frame> {
    (
        0u8..3,
        0u32..u32::MAX,
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u8..8,
    )
        .prop_map(|(variant, small, wide_a, wide_b, byte)| match variant {
            0 => Frame::Bind {
                process: small,
                session: wide_a,
                token: wide_b,
            },
            1 => Frame::Bound {
                process: small,
                path: admit_path(byte),
                session: wide_a,
                token: wide_b,
            },
            _ => Frame::BindReject {
                process: small,
                code: byte,
                retry_after_ms: wide_a as u32,
            },
        })
}

/// Strategy: an arbitrary protocol frame. The vendored proptest shim has
/// no enum strategies, so the variant is drawn as a small integer and the
/// fields from full-width ranges.
fn frame() -> impl Strategy<Value = Frame> {
    (
        0u8..11,
        0u32..u32::MAX,
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u8..3,
    )
        .prop_map(|(variant, small, wide_a, wide_b, path)| match variant {
            0 => Frame::Hungry { process: small },
            1 => Frame::Granted {
                process: small,
                at_ms: wide_a,
            },
            2 => Frame::Released {
                process: small,
                at_ms: wide_a,
            },
            3 => Frame::Ping { nonce: small },
            4 => Frame::Pong { nonce: small },
            5 => Frame::Bye,
            6 => Frame::Bind {
                process: small,
                session: wide_a,
                token: wide_b,
            },
            7 => Frame::Unbind { process: small },
            8 => Frame::Bound {
                process: small,
                path: admit_path(path),
                session: wide_a,
                token: wide_b,
            },
            9 => Frame::BindReject {
                process: small,
                code: path,
                retry_after_ms: wide_b as u32,
            },
            _ => Frame::Unbound { process: small },
        })
}

/// Every proper prefix of `f`'s encoding is either "incomplete, read more"
/// or an outright error — never a decoded frame.
fn truncations_detected(f: &Frame) {
    let bytes = encode_frame(f);
    for cut in 0..bytes.len() {
        let r = decode_frame(&bytes[..cut]);
        prop_assert!(
            !matches!(r, Ok(Some(_))),
            "truncation to {} of {} bytes decoded a frame",
            cut,
            bytes.len()
        );
    }
}

/// Single-bit rot anywhere in `f`'s encoding is always detected: the CRC
/// covers the header and body, so no flip may yield a frame. (A flip that
/// enlarges the length field legitimately reads as incomplete — that too
/// is detection, and more bytes only lead to a CRC error.)
fn bit_flips_detected(f: &Frame) {
    let bytes = encode_frame(f);
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut rotted = bytes.clone();
            rotted[byte] ^= 1 << bit;
            let r = decode_frame(&rotted);
            prop_assert!(
                !matches!(r, Ok(Some(_))),
                "flip at byte {} bit {} decoded as a frame",
                byte,
                bit
            );
        }
    }
}

/// Decodes `buf` with a cursor: every complete frame in order, stopping
/// at the first incomplete one. Any decode error fails the test.
fn cursor_decode(buf: &[u8]) -> Vec<Frame> {
    let mut at = 0;
    let mut frames = Vec::new();
    loop {
        match decode_frame(&buf[at..]) {
            Ok(Some((frame, n))) => {
                frames.push(frame);
                at += n;
            }
            Ok(None) => return frames,
            Err(e) => panic!("{} bytes of a valid batch failed to decode: {e}", buf.len()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Round-trip identity: decode(encode(f)) == f, consuming exactly
    /// the encoded bytes.
    #[test]
    fn encode_decode_identity(f in frame()) {
        let bytes = encode_frame(&f);
        let (back, consumed) = decode_frame(&bytes)
            .expect("own encoding is well-formed")
            .expect("own encoding is complete");
        prop_assert_eq!(back, f);
        prop_assert_eq!(consumed, bytes.len());
    }

    /// Every truncation point of every frame is detected.
    #[test]
    fn every_truncation_point_is_detected(f in frame()) {
        truncations_detected(&f);
    }

    /// Every single-bit flip of every frame is detected.
    #[test]
    fn every_single_bit_flip_is_detected(f in frame()) {
        bit_flips_detected(&f);
    }

    /// The admission frames round-trip with full-width credentials, and
    /// every truncation point and bit flip of them is detected.
    #[test]
    fn admission_frames_round_trip_and_resist_corruption(f in admission_frame()) {
        let bytes = encode_frame(&f);
        let (back, consumed) = decode_frame(&bytes)
            .expect("own encoding is well-formed")
            .expect("own encoding is complete");
        prop_assert_eq!(&back, &f);
        prop_assert_eq!(consumed, bytes.len());
        truncations_detected(&f);
        bit_flips_detected(&f);
    }

    /// Two frames back to back decode independently: corruption confined
    /// to the second never disturbs the first.
    #[test]
    fn streaming_resynchronizes_frame_boundaries(a in frame(), b in frame()) {
        let mut bytes = encode_frame(&a);
        let first_len = bytes.len();
        bytes.extend_from_slice(&encode_frame(&b));
        let (first, n) = decode_frame(&bytes).unwrap().expect("first frame complete");
        prop_assert_eq!(first, a);
        prop_assert_eq!(n, first_len);
        let (second, m) = decode_frame(&bytes[n..]).unwrap().expect("second frame complete");
        prop_assert_eq!(second, b);
        prop_assert_eq!(n + m, bytes.len());
    }

    /// A batch appended into one buffer is byte-for-byte the frames'
    /// own encodings back to back, and cursor-decodes in order. Every
    /// truncation of it decodes exactly the frames it holds whole, then
    /// reads as incomplete.
    #[test]
    fn batched_frames_cursor_decode_and_truncate_to_a_prefix(
        frames in proptest::collection::vec(frame(), 1..12)
    ) {
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        for f in &frames {
            encode_frame_into(f, &mut buf);
            ends.push(buf.len());
        }
        let separate: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        prop_assert_eq!(&buf, &separate);
        prop_assert_eq!(&cursor_decode(&buf), &frames);
        for cut in 0..buf.len() {
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            prop_assert_eq!(&cursor_decode(&buf[..cut])[..], &frames[..whole]);
        }
    }
}
