//! Property tests of the wire protocol: every frame round-trips
//! bitwise through encode/decode across all dtypes, ragged shapes,
//! and error variants — and no truncation or corruption of the byte
//! stream can panic, hang, or silently mis-decode a frame.

use fmm_matrix::DenseMatrix;
use fmm_serve::wire::{
    decode_matrix, encode_matrix, read_frame, write_frame, ErrorCode, Frame, WireDtype, WireError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Cursor;

fn dtype_of(tag: u8) -> WireDtype {
    if tag.is_multiple_of(2) {
        WireDtype::F64
    } else {
        WireDtype::F32
    }
}

fn code_of(tag: u8) -> ErrorCode {
    match tag % 7 {
        0 => ErrorCode::Busy,
        1 => ErrorCode::Shape,
        2 => ErrorCode::Plan,
        3 => ErrorCode::Malformed,
        4 => ErrorCode::Internal,
        5 => ErrorCode::Draining,
        _ => ErrorCode::Unavailable,
    }
}

/// Random little-endian scalar payload for an `rows × cols` matrix.
fn matrix_bytes(rows: usize, cols: usize, dtype: WireDtype, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    match dtype {
        WireDtype::F64 => encode_matrix(&DenseMatrix::<f64>::random(rows, cols, &mut rng)),
        WireDtype::F32 => encode_matrix(&DenseMatrix::<f32>::random(rows, cols, &mut rng)),
    }
}

/// Write `frame` through the stream layer and collect the raw bytes
/// (length prefix included).
fn to_stream_bytes(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, frame).expect("write to Vec cannot fail");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn multiply_frames_roundtrip_all_dtypes_and_ragged_shapes(
        id in 0u64..u64::MAX,
        dtype_tag in 0u8..2,
        m in 0usize..24,
        k in 0usize..24,
        n in 0usize..24,
        seed in 0u64..1000,
    ) {
        let dtype = dtype_of(dtype_tag);
        let req = Frame::MultiplyReq {
            id,
            dtype,
            m: m as u32,
            k: k as u32,
            n: n as u32,
            a: matrix_bytes(m, k, dtype, seed),
            b: matrix_bytes(k, n, dtype, seed ^ 0x5a5a),
        };
        prop_assert_eq!(&Frame::decode(&req.encode()).unwrap(), &req);

        let ok = Frame::MultiplyOk {
            id,
            dtype,
            m: m as u32,
            n: n as u32,
            c: matrix_bytes(m, n, dtype, seed ^ 0xc3c3),
        };
        prop_assert_eq!(&Frame::decode(&ok.encode()).unwrap(), &ok);

        // The stream layer (length prefix) round-trips too.
        let bytes = to_stream_bytes(&req);
        let got = read_frame(&mut Cursor::new(&bytes)).unwrap().unwrap();
        prop_assert_eq!(&got, &req);
    }

    #[test]
    fn matrix_payloads_roundtrip_bitwise(
        rows in 0usize..24,
        cols in 0usize..24,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m64 = DenseMatrix::<f64>::random(rows, cols, &mut rng);
        let back = decode_matrix::<f64>(rows, cols, &encode_matrix(&m64)).unwrap();
        prop_assert_eq!(m64.as_slice(), back.as_slice());

        let m32 = DenseMatrix::<f32>::random(rows, cols, &mut rng);
        let back = decode_matrix::<f32>(rows, cols, &encode_matrix(&m32)).unwrap();
        prop_assert_eq!(m32.as_slice(), back.as_slice());
    }

    #[test]
    fn control_and_error_frames_roundtrip(
        id in 0u64..u64::MAX,
        code_tag in 0u8..7,
        msg_seed in 0u64..10_000,
        msg_len in 0usize..80,
        queue_depth in 0u32..u32::MAX,
        draining_tag in 0u8..2,
    ) {
        // Messages cover empty, ASCII, and multi-byte UTF-8.
        let message: String = format!("err-{msg_seed}-µß™")
            .chars()
            .cycle()
            .take(msg_len)
            .collect();
        let json = format!("{{\"seed\": {msg_seed}}}");
        let draining = draining_tag == 1;
        let frames = [
            Frame::Error { id, code: code_of(code_tag), message },
            Frame::StatsReq { id },
            Frame::StatsOk { id, json },
            Frame::HealthReq { id },
            Frame::HealthOk { id, queue_depth, draining },
            Frame::DrainReq { id },
            Frame::DrainOk { id },
        ];
        for frame in &frames {
            prop_assert_eq!(&Frame::decode(&frame.encode()).unwrap(), frame);
            let bytes = to_stream_bytes(frame);
            let got = read_frame(&mut Cursor::new(&bytes)).unwrap().unwrap();
            prop_assert_eq!(&got, frame);
        }
    }

    #[test]
    fn truncated_streams_are_rejected_not_hung(
        m in 1usize..8,
        k in 1usize..8,
        n in 1usize..8,
        seed in 0u64..200,
        cut_frac in 0.0f64..1.0,
    ) {
        let dtype = dtype_of(seed as u8);
        let frame = Frame::MultiplyReq {
            id: 7,
            dtype,
            m: m as u32,
            k: k as u32,
            n: n as u32,
            a: matrix_bytes(m, k, dtype, seed),
            b: matrix_bytes(k, n, dtype, seed + 1),
        };
        let bytes = to_stream_bytes(&frame);
        // Cut strictly inside the frame: the reader must report a
        // typed truncation, never block or panic.
        let cut = 1 + ((bytes.len() - 2) as f64 * cut_frac) as usize;
        let result = read_frame(&mut Cursor::new(&bytes[..cut]));
        prop_assert!(
            matches!(result, Err(WireError::Truncated)),
            "cut at {cut}/{} gave {result:?}", bytes.len()
        );
        // An empty stream is a clean close, not an error.
        prop_assert!(matches!(read_frame(&mut Cursor::new(&[][..])), Ok(None)));
    }

    #[test]
    fn corrupted_payloads_never_panic_and_bad_headers_are_typed(
        m in 1usize..8,
        n in 1usize..8,
        seed in 0u64..200,
        flip_at_frac in 0.0f64..1.0,
        flip_bits in 1u8..255,
    ) {
        let dtype = dtype_of(seed as u8);
        let frame = Frame::MultiplyOk {
            id: 9,
            dtype,
            m: m as u32,
            n: n as u32,
            c: matrix_bytes(m, n, dtype, seed),
        };
        let payload = frame.encode();

        // Arbitrary single-byte corruption: decode is total — it may
        // reject, or (for a data-byte flip) decode different contents,
        // but it must never panic.
        let mut corrupted = payload.clone();
        let at = ((corrupted.len() - 1) as f64 * flip_at_frac) as usize;
        corrupted[at] ^= flip_bits;
        let _ = Frame::decode(&corrupted);

        // Header corruption is always a *typed* rejection.
        let mut bad_version = payload.clone();
        bad_version[0] ^= flip_bits;
        prop_assert!(matches!(
            Frame::decode(&bad_version),
            Err(WireError::BadVersion(_))
        ));

        let mut bad_kind = payload.clone();
        bad_kind[1] = 0;
        prop_assert!(matches!(Frame::decode(&bad_kind), Err(WireError::BadKind(0))));

        // Declaring a longer body than is present is a length error.
        let mut short = payload.clone();
        short.truncate(payload.len() - 1);
        prop_assert!(matches!(
            Frame::decode(&short),
            Err(WireError::BadLength { .. }) | Err(WireError::Truncated)
        ));
    }

    #[test]
    fn malformed_length_prefixes_are_typed_errors(
        declared in 0u32..u32::MAX,
    ) {
        // A stream whose 4-byte prefix declares `declared` bytes but
        // carries none: either truncated (plausible prefix) or
        // oversized (prefix beyond MAX_FRAME) — decided *before* any
        // allocation, and never a hang.
        let bytes = declared.to_le_bytes();
        let result = read_frame(&mut Cursor::new(&bytes[..]));
        match result {
            Err(WireError::Truncated) => {
                prop_assert!(declared >= 1);
                prop_assert!((declared as usize) <= fmm_serve::wire::MAX_FRAME);
            }
            // A zero-length payload decodes (vacuously complete) and
            // is rejected as too short for even a header.
            Err(WireError::BadLength { .. }) => prop_assert!(declared == 0),
            Err(WireError::Oversized(len)) => {
                prop_assert!(len > fmm_serve::wire::MAX_FRAME);
            }
            other => prop_assert!(false, "expected a typed rejection, got {other:?}"),
        }
    }
}
