//! Protocol robustness under hostile and broken inputs.
//!
//! The decoder's contract for a long-lived daemon: every malformed
//! frame — wrong magic, alien version, hostile length prefix, truncation
//! at *any* byte, flipped bytes, garbage counts — earns a structured
//! [`ProtocolError`], never a panic, a hang, or an allocation larger
//! than the frame that arrived. These tests drive `read_frame` and the
//! request/response decoders directly over in-memory byte streams, so
//! every corruption site is exact and deterministic.

use imm_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    FrameRead, ProtocolError, Request, Response, FRAME_HEADER_LEN, FRAME_MAGIC,
    MAX_AUDIENCE_CAPACITY, PROTOCOL_VERSION,
};
use imm_serve::{DeltaOutcome, Rejection, ServeError, ServerInfo};
use imm_service::{Query, QueryResponse};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;

const MAX: usize = 1 << 20;

fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, payload).expect("in-memory write");
    wire
}

fn read_one(bytes: &[u8]) -> Result<FrameRead, ProtocolError> {
    read_frame(&mut Cursor::new(bytes), MAX)
}

// ---------------------------------------------------------------------------
// Frame header abuse.

/// A length prefix of `u32::MAX` must be rejected *before* any payload
/// buffer is allocated — a hostile 9-byte header cannot cost 4 GiB.
#[test]
fn hostile_length_prefix_is_rejected_before_allocation() {
    let mut header = Vec::new();
    header.extend_from_slice(&FRAME_MAGIC);
    header.push(PROTOCOL_VERSION);
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    match read_one(&header) {
        Err(ProtocolError::FrameTooLarge { len, max }) => {
            assert_eq!(len, u32::MAX as u64);
            assert_eq!(max, MAX as u64);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    // One past the cap is the exact boundary.
    let mut boundary = Vec::new();
    boundary.extend_from_slice(&FRAME_MAGIC);
    boundary.push(PROTOCOL_VERSION);
    boundary.extend_from_slice(&((MAX as u32) + 1).to_le_bytes());
    assert!(matches!(read_one(&boundary), Err(ProtocolError::FrameTooLarge { .. })));
}

#[test]
fn bad_magic_is_a_structured_error() {
    let mut wire = frame_bytes(&encode_request(&Request::Ping));
    wire[0] = b'X';
    match read_one(&wire) {
        Err(ProtocolError::BadMagic { found }) => assert_eq!(found[0], b'X'),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn version_mismatch_names_both_versions() {
    let mut wire = frame_bytes(&encode_request(&Request::Ping));
    wire[4] = PROTOCOL_VERSION + 9;
    match read_one(&wire) {
        Err(ProtocolError::VersionMismatch { ours, theirs }) => {
            assert_eq!(ours, PROTOCOL_VERSION);
            assert_eq!(theirs, PROTOCOL_VERSION + 9);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

/// A frame cut off at **every** possible prefix length: empty input is a
/// clean EOF, a partial header or payload is `Truncated` — never a hang
/// and never a successful read.
#[test]
fn truncation_at_every_prefix_is_eof_or_truncated() {
    let wire =
        frame_bytes(&encode_request(&Request::ApplyDelta { text: "+ 0 1 0.5\n- 2 3\n".into() }));
    for cut in 0..wire.len() {
        match read_one(&wire[..cut]) {
            Ok(FrameRead::Eof) => assert_eq!(cut, 0, "EOF only before the first byte"),
            Err(ProtocolError::Truncated { .. }) => assert!(cut > 0),
            other => panic!("prefix of {cut} bytes: expected Eof/Truncated, got {other:?}"),
        }
    }
    // The whole frame still reads back.
    assert!(matches!(read_one(&wire), Ok(FrameRead::Frame(_))));
}

/// A half-written frame over a *timing-out* stream must surface as
/// `Truncated`, not hang: the reader folds a mid-frame timeout into the
/// same structured error as a mid-frame EOF.
#[test]
fn half_written_frame_times_out_into_truncated() {
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let address = listener.local_addr().expect("addr");
    let writer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(address).expect("connect");
        let wire = frame_bytes(&encode_request(&Request::Ping));
        // Header plus one payload byte, then stall with the socket open.
        stream.write_all(&wire[..FRAME_HEADER_LEN.min(wire.len())]).expect("partial write");
        std::thread::sleep(Duration::from_millis(300));
        drop(stream);
    });
    let (mut conn, _) = listener.accept().expect("accept");
    conn.set_read_timeout(Some(Duration::from_millis(50))).expect("timeout");
    match read_frame(&mut conn, MAX) {
        Err(ProtocolError::Truncated { .. }) => {}
        other => panic!("expected Truncated on a stalled frame, got {other:?}"),
    }
    writer.join().expect("writer thread");
}

/// An idle connection (timeout before the first byte) is `Idle`, not an
/// error — the server's idle timeout depends on the distinction.
#[test]
fn timeout_before_first_byte_is_idle() {
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let address = listener.local_addr().expect("addr");
    let client = TcpStream::connect(address).expect("connect");
    let (mut conn, _) = listener.accept().expect("accept");
    conn.set_read_timeout(Some(Duration::from_millis(30))).expect("timeout");
    assert!(matches!(read_frame(&mut conn, MAX), Ok(FrameRead::Idle)));
    drop(client);
}

// ---------------------------------------------------------------------------
// Payload abuse.

#[test]
fn unknown_opcodes_are_structured_errors() {
    for opcode in [0x00u8, 0x07, 0x42, 0xFF] {
        match decode_request(&[opcode]) {
            Err(ProtocolError::UnknownTag { tag, .. }) => assert_eq!(tag, opcode),
            other => panic!("request opcode {opcode:#x}: expected UnknownTag, got {other:?}"),
        }
    }
    for opcode in [0x00u8, 0x42, 0x80, 0xFF] {
        assert!(
            matches!(decode_response(&[opcode]), Err(ProtocolError::UnknownTag { .. })),
            "response opcode {opcode:#x} must be rejected"
        );
    }
    assert!(matches!(decode_request(&[]), Err(ProtocolError::Truncated { .. })));
    assert!(matches!(decode_response(&[]), Err(ProtocolError::Truncated { .. })));
}

/// 0x05 was `ERR_DEGRADED` until the scatter pool went. A frame still
/// carrying it (an older daemon's) decodes like any error code the client
/// never knew — a structured error, no panic.
#[test]
fn the_retired_degraded_error_code_decodes_as_an_unknown_tag() {
    // OP_ERROR, the retired code, and the detail string it used to carry.
    let mut retired = vec![0xEEu8, 0x05];
    retired.extend_from_slice(&4u32.to_le_bytes());
    retired.extend_from_slice(b"lost");
    let never_assigned = [0xEEu8, 0x7F];
    match (decode_response(&retired), decode_response(&never_assigned)) {
        (
            Err(ProtocolError::UnknownTag { context: retired, tag: 0x05 }),
            Err(ProtocolError::UnknownTag { context: unknown, tag: 0x7F }),
        ) => assert_eq!(retired, unknown),
        other => panic!("expected two UnknownTag errors, got {other:?}"),
    }
}

/// A garbage element count can never drive an allocation past the frame
/// it arrived in: a batch claiming 4 billion queries inside a 20-byte
/// payload is malformed, instantly.
#[test]
fn oversized_member_counts_are_malformed_not_allocated() {
    // Opcode 0x02 (batch) + u32::MAX query count, nothing behind it.
    let mut payload = vec![0x02u8];
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    match decode_request(&payload) {
        Err(ProtocolError::Malformed { .. }) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }

    // An audience bitmap claiming a capacity beyond the sanity cap.
    let query = Query::audience_top_k(2, imm_rrr::BitSet::from_iter_with_capacity(8, [1usize]));
    let mut encoded = encode_request(&Request::Batch(vec![query]));
    let cap_at =
        encoded.windows(8).position(|w| w == 8u64.to_le_bytes()).expect("capacity field present");
    encoded[cap_at..cap_at + 8].copy_from_slice(&(MAX_AUDIENCE_CAPACITY + 1).to_le_bytes());
    match decode_request(&encoded) {
        Err(ProtocolError::Malformed { .. } | ProtocolError::Truncated { .. }) => {}
        other => panic!("expected a structured rejection, got {other:?}"),
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut payload = encode_request(&Request::Ping);
    payload.push(0xAB);
    assert!(matches!(decode_request(&payload), Err(ProtocolError::Malformed { .. })));

    let mut payload = encode_response(&Response::Pong);
    payload.extend_from_slice(b"junk");
    assert!(matches!(decode_response(&payload), Err(ProtocolError::Malformed { .. })));
}

// ---------------------------------------------------------------------------
// Exhaustive flips and random garbage (proptest).
//
// The vendored proptest subset has no `prop_oneof!`/regex strategies, so
// messages are generated from a seed through `SmallRng` — deterministic
// per case, covering every variant including NaN-bit f64 payloads.

fn seeded_query(rng: &mut SmallRng) -> Query {
    match rng.gen_range(0u8..4) {
        0 => Query::top_k(rng.gen_range(1usize..20)),
        1 => Query::Spread {
            seeds: (0..rng.gen_range(1usize..5)).map(|_| rng.gen_range(0u32..200)).collect(),
        },
        2 => Query::Marginal {
            seeds: (0..rng.gen_range(1usize..4)).map(|_| rng.gen_range(0u32..200)).collect(),
            candidate: rng.gen_range(0u32..200),
        },
        _ => {
            let members: Vec<usize> =
                (0..rng.gen_range(1usize..10)).map(|_| rng.gen_range(0usize..100)).collect();
            Query::audience_top_k(
                rng.gen_range(1usize..8),
                imm_rrr::BitSet::from_iter_with_capacity(100, members),
            )
        }
    }
}

fn seeded_request(seed: u64) -> Request {
    let mut rng = SmallRng::seed_from_u64(seed);
    match rng.gen_range(0u8..6) {
        0 => Request::Ping,
        1 => Request::Metrics,
        2 => Request::Info,
        3 => Request::Shutdown,
        4 => Request::ApplyDelta {
            text: (0..rng.gen_range(0usize..40))
                .map(|_| rng.gen_range(b' '..b'~') as char)
                .collect(),
        },
        _ => {
            Request::Batch((0..rng.gen_range(0usize..6)).map(|_| seeded_query(&mut rng)).collect())
        }
    }
}

/// An arbitrary f64 by bits: hits infinities, NaN payloads, subnormals.
fn seeded_f64(rng: &mut SmallRng) -> f64 {
    f64::from_bits(rng.gen::<u64>())
}

fn seeded_outcome(rng: &mut SmallRng) -> Result<QueryResponse, Rejection> {
    match rng.gen_range(0u8..5) {
        0 => Ok(QueryResponse::TopK {
            seeds: (0..rng.gen_range(0usize..5)).map(|_| rng.gen_range(0u32..100)).collect(),
            coverage_fraction: seeded_f64(rng),
            estimated_influence: seeded_f64(rng),
        }),
        1 => Ok(QueryResponse::Spread {
            coverage_fraction: seeded_f64(rng),
            estimate: seeded_f64(rng),
        }),
        2 => Ok(QueryResponse::Marginal { gain_fraction: seeded_f64(rng), gain: seeded_f64(rng) }),
        3 => Err(Rejection::OverBudget { estimated_cost: rng.gen(), budget: rng.gen() }),
        _ => Err(Rejection::InvalidVertex { vertex: rng.gen(), num_nodes: rng.gen() }),
    }
}

fn seeded_text(rng: &mut SmallRng, max: usize) -> String {
    (0..rng.gen_range(0usize..max)).map(|_| rng.gen_range(b' '..b'~') as char).collect()
}

fn seeded_response(seed: u64) -> Response {
    let mut rng = SmallRng::seed_from_u64(seed);
    match rng.gen_range(0u8..8) {
        0 => Response::Pong,
        1 => Response::ShuttingDown,
        2 => Response::MetricsJson(seeded_text(&mut rng, 60)),
        3 => Response::Info(ServerInfo {
            label: seeded_text(&mut rng, 20),
            theta: rng.gen(),
            nodes: rng.gen(),
            shards: rng.gen_range(1u32..8),
            workers: rng.gen_range(0u32..8),
            rollouts: rng.gen(),
            postings_row_vertices: rng.gen(),
            postings_row_bytes: rng.gen(),
            postings_list_entries: rng.gen(),
            postings_list_bytes: rng.gen(),
        }),
        4 => Response::DeltaApplied(DeltaOutcome {
            total_sets: rng.gen(),
            resampled_sets: rng.gen(),
            inserted_edges: rng.gen(),
            deleted_edges: rng.gen(),
            reweighted_edges: rng.gen(),
            edges_after: rng.gen(),
        }),
        5 => Response::Error(match rng.gen_range(0u8..4) {
            0 => ServeError::QueueFull { inflight: rng.gen(), limit: rng.gen() },
            1 => ServeError::NotDynamic,
            2 => ServeError::Delta { detail: seeded_text(&mut rng, 30) },
            _ => ServeError::BadRequest { detail: seeded_text(&mut rng, 30) },
        }),
        _ => Response::Batch(
            (0..rng.gen_range(0usize..6)).map(|_| seeded_outcome(&mut rng)).collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every request survives an encode/decode round trip exactly (the
    /// re-encode compares the wire bytes, so audience bitmaps and all).
    #[test]
    fn request_round_trip(seed in any::<u64>()) {
        let request = seeded_request(seed);
        let decoded = decode_request(&encode_request(&request)).expect("round trip");
        prop_assert_eq!(encode_request(&decoded), encode_request(&request));
    }

    /// Every response survives a round trip with f64 *bit* exactness —
    /// comparing re-encoded wire bytes keeps NaN payloads honest, where
    /// `==` on the f64 fields would reject a faithful NaN round trip.
    #[test]
    fn response_round_trip(seed in any::<u64>()) {
        let response = seeded_response(seed);
        let decoded = decode_response(&encode_response(&response)).expect("round trip");
        prop_assert_eq!(encode_response(&decoded), encode_response(&response));
    }

    /// Flip any byte of a valid encoded request: the decoder must return
    /// (a structured error or a different request) without panicking or
    /// over-reading. Sweeping every position per case makes the flip
    /// coverage exhaustive, not sampled.
    #[test]
    fn flipped_bytes_never_panic_the_request_decoder(seed in any::<u64>(), bits in 1u8..=255) {
        let payload = encode_request(&seeded_request(seed));
        for at in 0..payload.len() {
            let mut corrupt = payload.clone();
            corrupt[at] ^= bits;
            let _ = decode_request(&corrupt); // must return, not panic
        }
    }

    /// Same for the response decoder — a hostile server cannot panic a
    /// client.
    #[test]
    fn flipped_bytes_never_panic_the_response_decoder(seed in any::<u64>(), bits in 1u8..=255) {
        let payload = encode_response(&seeded_response(seed));
        for at in 0..payload.len() {
            let mut corrupt = payload.clone();
            corrupt[at] ^= bits;
            let _ = decode_response(&corrupt);
        }
    }

    /// Pure random garbage decodes to a structured error (or, rarely, a
    /// valid message) — never a panic, never an oversized allocation.
    #[test]
    fn random_garbage_never_panics(seed in any::<u64>(), len in 0usize..300) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let _ = read_one(&bytes);
    }
}
