//! Protocol fuzz/property tests for the network front door:
//!
//! 1. **Roundtrips.** Every message the front door's table carries survives
//!    its writer and reader word for word, across random shapes and specs.
//! 2. **Adversarial streams.** A live [`NetServer`] fed garbage, truncated
//!    and oversized frames, hello replays, unknown kinds and the
//!    table-generated hostile frames answers with a typed error or drops
//!    the connection — never a panic, never a wedge — and still serves
//!    bit for bit afterwards.
//! 3. **One version, the kept tensor, the scrape**, and the frame tables
//!    the docs show, printed from the table itself.

use mttkrp_als::AlsConfig;
use mttkrp_dist::transport::wire::{self, Dir, Door, Frame};
use mttkrp_exec::MachineSpec;
use mttkrp_serve::net::listener::{metric, MAX_KEPT_BYTES};
use mttkrp_serve::net::protocol::{self, FactorizeSpec, ProtocolError};
use mttkrp_serve::{NetConfig, NetServer, ServerConfig};
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

#[path = "../../dist/tests/support/rows.rs"]
mod rows;

fn machine() -> MachineSpec {
    MachineSpec::shared(1, 1 << 12)
}

fn operands(dims: &[usize], rank: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
    let x = DenseTensor::random(Shape::new(dims), seed);
    let factors = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| Matrix::random(d, rank, seed.wrapping_add(k as u64 + 1)))
        .collect();
    (x, factors)
}

fn bits(a: &[f64]) -> Vec<u64> {
    a.iter().map(|w| w.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mttkrp_request_roundtrips_bit_exactly(
        dims in prop::collection::vec(2usize..6, 2..=4), rank in 1usize..5, seed in 0u64..1000,
        tag in 1u32..10_000,
    ) {
        let (x, factors) = operands(&dims, rank, seed);
        for mode in 0..dims.len() {
            let frame = protocol::encode_mttkrp_request(tag, &x, &factors, mode);
            prop_assert_eq!(frame.from, tag);
            let req = protocol::decode_mttkrp_request(&frame).unwrap();
            prop_assert_eq!((req.mode, req.tensor.shape().dims()), (mode, &dims[..]));
            prop_assert_eq!(bits(req.tensor.data()), bits(x.data()));
            for (got, want) in req.factors.iter().zip(&factors) {
                prop_assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
                prop_assert_eq!(bits(got.data()), bits(want.data()));
            }
        }
    }

    #[test]
    fn factorize_request_roundtrips_bit_exactly(
        dims in prop::collection::vec(2usize..6, 2..=4), rank in 1usize..5,
        max_sweeps in 1usize..100, tol_exp in 1i32..12, seed in 0u64..1000, stream in any::<bool>(),
        tag in 1u32..10_000,
    ) {
        let x = DenseTensor::random(Shape::new(&dims), seed);
        let spec = FactorizeSpec {
            rank,
            max_sweeps,
            tol: 10f64.powi(-tol_exp),
            seed,
            ridge: 1e-9,
        };
        let frame = spec.request(&x, stream).frame(tag);
        let back = Door::decode(&frame, Dir::Ask, &[]).unwrap();
        prop_assert_eq!(bits(&back.frame(tag).payload), bits(&frame.payload));
    }

    #[test]
    fn factorize_response_roundtrips_bit_exactly(
        dims in prop::collection::vec(2usize..6, 3..=3), rank in 1usize..4, seed in 0u64..100,
        tag in 1u32..10_000,
    ) {
        // A real (tiny) run, so the encoded model is a genuine AlsRun.
        let x = DenseTensor::random(Shape::new(&dims), seed);
        let config = AlsConfig::new(rank).with_sweeps(3).with_machine(machine());
        let run = mttkrp_als::cp_als(&x, &config);
        let frame = protocol::factorize_reply(&run).frame(tag);
        let back = Door::decode(&frame, Dir::Answer, &[]).unwrap();
        prop_assert_eq!(bits(&back.frame(tag).payload), bits(&frame.payload));
        let Door::FactorizeResp { weights, .. } = back else { unreachable!() };
        prop_assert_eq!(bits(&weights), bits(&run.model.weights));
    }

    #[test]
    fn sweep_error_retry_and_hello_roundtrip(
        sweep_no in 1usize..1_000_000, fit in -1.0f64..1.0, delta in -1.0f64..1.0,
        first in any::<bool>(), ms in 0u64..100_000, tag in 1u32..10_000, text_seed in 0usize..4,
    ) {
        let delta_fit = if first { f64::NAN } else { delta };
        let messages = ["", "plain ascii", "snowman ☃ and π", "trailing\nnewline\n"];
        let message = std::borrow::Cow::Borrowed(messages[text_seed]);
        for sent in [
            Door::Sweep { sweep: sweep_no, fit, delta_fit },
            Door::Error { message },
            Door::RetryAfter { ms },
            Door::Hello { version: protocol::PROTOCOL_VERSION },
        ] {
            let frame = sent.frame(tag);
            prop_assert_eq!(frame.from, tag);
            let back = Door::decode(&frame, Dir::Answer, &[]).unwrap();
            // Word for word, so the first sweep's NaN delta survives too.
            prop_assert_eq!(bits(&back.frame(tag).payload), bits(&frame.payload));
        }
    }

    #[test]
    fn corrupted_request_payloads_never_panic_the_decoders(
        dims in prop::collection::vec(2usize..6, 2..=4), rank in 1usize..5, seed in 0u64..1000,
        cut_frac in 0.0f64..1.0, smash_at_frac in 0.0f64..1.0, smash_to in any::<u64>(),
    ) {
        let (x, factors) = operands(&dims, rank, seed);
        let good = protocol::encode_mttkrp_request(1, &x, &factors, 0);

        // Truncated payload: decode must reject, not slice out of bounds.
        let cut = (good.payload.len() as f64 * cut_frac) as usize;
        if cut < good.payload.len() {
            let truncated = Frame {
                payload: good.payload[..cut].to_vec(),
                ..good.clone()
            };
            prop_assert!(protocol::decode_mttkrp_request(&truncated).is_err());
        }

        // One word smashed to an arbitrary bit pattern: decode either
        // succeeds (the word was tensor/factor data — any f64 is data) or
        // rejects; it never panics.
        let mut smashed = good.clone();
        let at = ((smashed.payload.len() - 1) as f64 * smash_at_frac) as usize;
        smashed.payload[at] = f64::from_bits(smash_to);
        let _ = protocol::decode_mttkrp_request(&smashed);
        let smashed = Frame { comm_id: Door::FACTORIZE_REQ, ..smashed };
        let _ = Door::decode(&smashed, Dir::Ask, &[]);
    }
}

// ---------------------------------------------------------------------------
// Adversarial streams against a live server
// ---------------------------------------------------------------------------

fn tiny_server() -> NetServer {
    NetServer::start(NetConfig {
        server: ServerConfig {
            machine: machine(),
            workers: 1,
            ..ServerConfig::default()
        },
        ..NetConfig::default()
    })
    .expect("bind loopback")
}

/// Raw socket that has completed the hello handshake.
fn raw_hello(server: &NetServer) -> TcpStream {
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    wire::write_frame(&mut s, &hello()).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(reply, hello());
    s
}

fn hello() -> Frame {
    let version = protocol::PROTOCOL_VERSION;
    Door::Hello { version }.frame(0)
}

/// A typed error reply's message.
fn error_text(reply: &Frame) -> String {
    match Door::decode(reply, Dir::Answer, &[]) {
        Ok(Door::Error { message }) => message.into_owned(),
        other => panic!("not a typed error: {other:?}"),
    }
}

/// After any amount of abuse, the server must still serve a fresh client
/// bit-correctly and shut down cleanly.
fn assert_still_alive(server: NetServer) {
    let mut client = mttkrp_serve::Client::connect(server.addr()).unwrap();
    let (x, factors) = operands(&[4, 5, 6], 3, 7);
    let remote = client.mttkrp(&x, &factors, 1).unwrap();
    let refs: Vec<&Matrix> = factors.iter().collect();
    let (_, direct) = mttkrp_exec::plan_and_execute(&machine(), &x, &refs, 1);
    assert_eq!(bits(remote.output.data()), bits(direct.output.data()));
    drop(client);
    server.shutdown();
}

#[test]
fn garbage_bytes_drop_the_connection_not_the_server() {
    let server = tiny_server();
    for seed in 0u64..8 {
        let mut s = raw_hello(&server);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let garbage: Vec<u8> = (0..257)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        s.write_all(&garbage).unwrap();
        // Whatever comes back (a typed error, or nothing), the stream ends.
        drain_to_eof(s);
    }
    assert_still_alive(server);
}

#[test]
fn oversized_length_prefix_is_refused_without_allocation() {
    let server = tiny_server();
    let mut s = raw_hello(&server);
    // A length prefix promising ~8 GiB: the codec must refuse up front.
    let body = 13u64 + 8 * (wire::MAX_PAYLOAD_WORDS as u64 * 8);
    s.write_all(&(body.min(u32::MAX as u64) as u32).to_le_bytes())
        .unwrap();
    s.write_all(&[0u8; 64]).unwrap();
    drain_to_eof(s);
    assert_still_alive(server);
}

#[test]
fn truncated_frame_then_disconnect_is_harmless() {
    let server = tiny_server();
    let (x, factors) = operands(&[4, 4, 4], 2, 3);
    for cut in [1usize, 4, 13, 40] {
        let mut s = raw_hello(&server);
        let mut bytes = Vec::new();
        let frame = protocol::encode_mttkrp_request(9, &x, &factors, 0);
        wire::write_frame(&mut bytes, &frame).unwrap();
        s.write_all(&bytes[..cut.min(bytes.len() - 1)]).unwrap();
        drop(s); // vanish mid-frame
    }
    assert_still_alive(server);
}

#[test]
fn hello_replay_gets_a_typed_error_and_a_hangup() {
    let server = tiny_server();
    let mut s = raw_hello(&server);
    wire::write_frame(&mut s, &hello()).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(
        reply.comm_id,
        Door::ERROR,
        "hello replay must be a typed error"
    );
    drain_to_eof(s);
    assert_still_alive(server);
}

#[test]
fn a_request_before_hello_is_rejected() {
    let server = tiny_server();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let (x, factors) = operands(&[4, 4, 4], 2, 3);
    wire::write_frame(&mut s, &protocol::encode_mttkrp_request(5, &x, &factors, 0)).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(reply.comm_id, Door::ERROR);
    drain_to_eof(s);
    assert_still_alive(server);
}

#[test]
fn unknown_frame_kinds_and_poison_get_typed_errors() {
    let server = tiny_server();
    // An unknown control id, and the retired metrics-history scrape's id.
    for kind in [wire::CTRL_BASE, u64::MAX - 18] {
        let mut s = raw_hello(&server);
        wire::write_frame(&mut s, &Frame::data(3, kind, Vec::new())).unwrap();
        let reply = wire::read_frame(&mut s).unwrap();
        assert_eq!(reply.comm_id, Door::ERROR, "kind {kind:#x}");
        drain_to_eof(s);
    }
    // A poison frame aimed at the front door.
    let mut s = raw_hello(&server);
    wire::write_frame(&mut s, &Frame::poison(3)).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(reply.comm_id, Door::ERROR);
    drain_to_eof(s);
    assert_still_alive(server);
}

#[test]
fn a_malformed_payload_keeps_the_connection_usable() {
    let server = tiny_server();
    let mut s = raw_hello(&server);
    // Well-framed but structurally nonsense: mode out of range.
    let (x, factors) = operands(&[4, 4, 4], 2, 3);
    let mut bad = protocol::encode_mttkrp_request(7, &x, &factors, 0);
    bad.payload[0] = 99.0; // mode 99 of a 3-mode tensor
    wire::write_frame(&mut s, &bad).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(reply.comm_id, Door::ERROR);
    assert_eq!(
        reply.from, 7,
        "the error is tagged for the offending request"
    );
    // The frame itself was well-formed, so the stream is still in sync:
    // the same socket must serve a valid request afterwards.
    wire::write_frame(&mut s, &protocol::encode_mttkrp_request(8, &x, &factors, 1)).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(reply.comm_id, Door::MTTKRP_HELD);
    assert_eq!(reply.from, 8);
    drop(s);
    assert_still_alive(server);
}

/// The streamed request path: a frame whose header promises more, or fewer,
/// words than the shape in its own head needs — or whose head is nonsense in
/// front of several chunks of operands — is refused on the head with a typed
/// error, its body drained rather than stored, and the connection stays in
/// sync: the next request on it is answered exactly as `Server::call` answers.
#[test]
fn a_word_count_that_disagrees_with_the_head_is_a_typed_error_in_sync() {
    let server = tiny_server();
    let mut s = raw_hello(&server);
    // 24 000 tensor words: the refused bodies span several codec chunks.
    let (x, factors) = operands(&[40, 30, 20], 3, 11);
    let good = protocol::encode_mttkrp_request(21, &x, &factors, 2);
    let mut longer = good.clone();
    longer.payload.push(0.0);
    let mut shorter = good.clone();
    shorter.payload.pop();
    let mut bad_mode = good.clone();
    bad_mode.payload[0] = 3.0;
    for (tag, mut bad) in [(22, longer), (23, shorter), (24, bad_mode)] {
        bad.from = tag;
        wire::write_frame(&mut s, &bad).unwrap();
        let reply = wire::read_frame(&mut s).unwrap();
        assert_eq!(reply.comm_id, Door::ERROR, "request {tag}");
        assert_eq!(reply.from, tag);
        let msg = error_text(&reply);
        assert!(msg.contains("malformed payload"), "{msg}");
    }
    let reply = exchange(&mut s, &good, Door::MTTKRP_HELD);
    let remote = protocol::decode_mttkrp_response(&as_resp(reply)).unwrap();
    let request = protocol::decode_mttkrp_request(&good).unwrap();
    let direct = server.server().call(request);
    assert_eq!(
        bits(remote.output.data()),
        bits(direct.report.output.data())
    );
    drop(s);
    assert_still_alive(server);
}

#[test]
fn an_abusive_factorize_rank_is_a_typed_error_not_an_allocation() {
    let server = tiny_server();
    let mut s = raw_hello(&server);
    let x = DenseTensor::random(Shape::new(&[4, 4, 4]), 1);
    let spec = FactorizeSpec {
        rank: 1 << 40, // the fitted model could never fit a reply frame
        max_sweeps: 1,
        tol: 1e-8,
        seed: 0,
        ridge: 1e-9,
    };
    spec.request(&x, false).write(&mut s, 2, None).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(reply.comm_id, Door::ERROR);
    let msg = error_text(&reply);
    assert!(msg.contains("wire frame limit"), "{msg}");
    drop(s);
    assert_still_alive(server);
}

#[test]
fn version_mismatch_is_a_typed_error() {
    let server = tiny_server();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    wire::write_frame(
        &mut s,
        &Frame::data(
            0,
            Door::HELLO,
            vec![protocol::PROTOCOL_VERSION as f64 + 1.0],
        ),
    )
    .unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(reply.comm_id, Door::ERROR);
    let msg = error_text(&reply);
    assert!(msg.contains("version"), "{msg}");
    drain_to_eof(s);
    assert_still_alive(server);
}

// ---------------------------------------------------------------------------
// The kept tensor against hostile frames
// ---------------------------------------------------------------------------

/// Sends `frame`; its reply must be tagged as it was and be of `kind`.
fn exchange(s: &mut TcpStream, frame: &Frame, kind: u64) -> Frame {
    wire::write_frame(s, frame).unwrap();
    let reply = wire::read_frame(s).unwrap();
    assert_eq!((reply.from, reply.comm_id), (frame.from, kind));
    reply
}

/// A `HELD` reply as the `RESP` it is laid out as.
fn as_resp(held: Frame) -> Frame {
    Frame {
        comm_id: Door::MTTKRP_RESP,
        ..held
    }
}

/// `KEPT` before any `REQ`, with a hostile head, and after a malformed
/// `REQ`, then a `REQ` over the kept-bytes bound: each is a typed error or a
/// plain reply, and the connection keeps serving — and keeping — in sync.
#[test]
fn hostile_kept_frames_get_typed_errors_in_sync() {
    let server = tiny_server();
    let mut s = raw_hello(&server);
    let (x, a) = operands(&[4, 5, 6], 3, 3);
    let keep = protocol::encode_mttkrp_request(30, &x, &a, 0);
    let good = protocol::mttkrp_message(None, &a, 1).frame(31);
    // A reply of `kind`, bit-equal to an in-process call on `x`.
    let refs: Vec<&Matrix> = a.iter().collect();
    let served = |s: &mut TcpStream, frame: &Frame, kind: u64| {
        let reply = exchange(s, frame, kind).payload;
        let mode = frame.payload[0] as usize;
        let (_, direct) = mttkrp_exec::plan_and_execute(&machine(), &x, &refs, mode);
        assert_eq!(bits(&reply[3..]), bits(direct.output.data()));
    };
    let nothing_kept = |s: &mut TcpStream| {
        let reply = exchange(s, &good, Door::ERROR);
        let msg = error_text(&reply);
        assert!(msg.contains("no tensor is kept"), "{msg}");
    };
    nothing_kept(&mut s);
    served(&mut s, &keep, Door::MTTKRP_HELD);
    let hostile: [fn(&mut Vec<f64>); 6] = [
        |p| p[1] = 2.0,              // wrong rank
        |p| p[1] = 0.0,              // rank zero
        |p| p[1] = 1e15,             // a rank no frame holds
        |p| p.push(0.0),             // one word too many
        |p| p.truncate(p.len() - 1), // one word too few
        |p| p[0] = 3.0,              // mode out of range
    ];
    for edit in hostile {
        let mut bad = good.clone();
        edit(&mut bad.payload);
        let msg = error_text(&exchange(&mut s, &bad, Door::ERROR));
        assert!(msg.contains("malformed payload"), "{msg}");
    }
    // Refused `KEPT`s leave the kept tensor in place...
    served(&mut s, &good, Door::MTTKRP_RESP);
    // ...and a malformed `REQ` drops it before its body is read.
    let mut malformed = keep.clone();
    malformed.payload.pop();
    exchange(&mut s, &malformed, Door::ERROR);
    nothing_kept(&mut s);

    // 2048 x 2049 ones, 16 KiB over the bound, streamed from one column.
    let dims = [2048usize, 2049];
    assert!(8 * (dims[0] * dims[1]) as u64 > MAX_KEPT_BYTES);
    let column = vec![1.0; dims[0]];
    let big: Vec<Matrix> = dims.iter().map(|&d| Matrix::random(d, 1, 5)).collect();
    let head = [0.0, 2.0, dims[0] as f64, dims[1] as f64, 1.0];
    let mut parts = vec![&head[..]];
    parts.extend(std::iter::repeat_n(&column[..], dims[1]));
    parts.extend(big.iter().map(Matrix::data));
    wire::write_parts(&mut s, 32, Door::MTTKRP_REQ, None, &parts).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(reply.comm_id, Door::MTTKRP_RESP, "served, not kept");
    let sum: f64 = big[1].data().iter().sum();
    let remote = protocol::decode_mttkrp_response(&reply).unwrap();
    assert!(remote.output.data().iter().all(|&b| b == sum));
    assert_eq!(server.metrics().gauge_value(metric::KEPT_BYTES), 0);
    nothing_kept(&mut s);

    served(&mut s, &keep, Door::MTTKRP_HELD);
    served(&mut s, &good, Door::MTTKRP_RESP);
    drop(s);
    assert_still_alive(server);
}

/// A frame's bytes as they leave: a frame read back writes the bytes it was
/// read from, every word bit for bit.
fn bytes_of(frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    wire::write_frame(&mut bytes, frame).unwrap();
    bytes
}

/// Versions 1 and 2 are gone: their hello, even with a request pipelined
/// behind it, is a typed error and a hang-up, and nothing is kept.
#[test]
fn a_hello_of_version_1_or_2_is_a_typed_error_and_a_hangup() {
    let server = tiny_server();
    let (x, a) = operands(&[4, 5, 6], 3, 6);
    for version in [1.0, 2.0] {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        wire::write_frame(&mut s, &Frame::data(0, Door::HELLO, vec![version])).unwrap();
        wire::write_frame(&mut s, &protocol::encode_mttkrp_request(50, &x, &a, 1)).unwrap();
        let reply = wire::read_frame(&mut s).unwrap();
        assert_eq!(reply.comm_id, Door::ERROR, "version {version}");
        let msg = error_text(&reply);
        assert!(msg.contains("unsupported protocol version"), "{msg}");
        drain_to_eof(s);
    }
    assert_eq!(server.metrics().gauge_value(metric::KEPT_BYTES), 0);
    assert_still_alive(server);
}

/// A plain `REQ` is kept and answered `HELD`; a `KEPT` behind it on the same
/// connection is answered with exactly the bytes of an in-process call's
/// reply, `[rows, cols, cache_hit, B..]` under `RESP`.
#[test]
fn a_request_is_held_and_a_kept_request_matches_server_call() {
    let server = tiny_server();
    let mut s = raw_hello(&server);
    let (x, a) = operands(&[4, 5, 6], 3, 6);
    let request = protocol::encode_mttkrp_request(50, &x, &a, 0);
    let held = exchange(&mut s, &request, Door::MTTKRP_HELD);
    let direct = server
        .server()
        .call(protocol::decode_mttkrp_request(&request).unwrap());
    assert_eq!(bits(&held.payload[3..]), bits(direct.report.output.data()));
    assert_eq!(
        server.metrics().gauge_value(metric::KEPT_BYTES),
        8 * 4 * 5 * 6
    );

    let got = exchange(
        &mut s,
        &protocol::mttkrp_message(None, &a, 1).frame(51),
        Door::MTTKRP_RESP,
    );
    // The socket's request planned the key, so the in-process call hits.
    let mut direct = server.server().call(
        protocol::decode_mttkrp_request(&protocol::encode_mttkrp_request(51, &x, &a, 1)).unwrap(),
    );
    direct.cache_hit = false;
    let want = protocol::encode_mttkrp_response(51, &direct);
    assert_eq!(want.payload[..3], [5.0, 3.0, 0.0]);
    assert_eq!(bytes_of(&got), bytes_of(&want));
    assert_eq!(server.metrics().counter_value(metric::KEPT_HITS), 1);
    drop(s);
    assert_still_alive(server);
}

/// Protocol errors are observable: the counter moves when a peer
/// misbehaves.
#[test]
fn protocol_errors_are_counted() {
    let server = tiny_server();
    let before = server
        .metrics()
        .counter_value(mttkrp_serve::net::listener::metric::PROTOCOL_ERRORS);
    let mut s = raw_hello(&server);
    wire::write_frame(&mut s, &Frame::poison(1)).unwrap();
    let _ = wire::read_frame(&mut s);
    drain_to_eof(s);
    let after = server
        .metrics()
        .counter_value(mttkrp_serve::net::listener::metric::PROTOCOL_ERRORS);
    assert_eq!(after, before + 1);
    assert_still_alive(server);
}

/// The plan-cache ledger rides the `STATS` scrape in the registry's own
/// metric-line format (`Client::stats` reads the payload with
/// `parse_trace`): one miss and one resident plan per distinct key, one
/// lookup per request served, and nothing but the lookup ledger.
#[test]
fn stats_scrape_carries_the_plan_cache_ledger() {
    use mttkrp_obs::MetricValue;
    let server = tiny_server();
    let mut client = mttkrp_serve::Client::connect(server.addr()).unwrap();
    let shapes: [&[usize]; 2] = [&[4, 5, 6], &[3, 4, 2, 5]];
    let keys: usize = shapes.iter().map(|dims| dims.len()).sum();
    for round in 0..2 {
        for dims in shapes {
            let (x, factors) = operands(dims, 3, round);
            for mode in 0..dims.len() {
                client.mttkrp(&x, &factors, mode).unwrap();
            }
        }
    }
    let snapshot = client.stats().unwrap();
    let value = |name: &str| {
        let found = snapshot.iter().find(|m| m.name == name);
        found.map(|m| m.value.clone())
    };
    let counter = |name: &str| match value(name) {
        Some(MetricValue::Counter(v)) => v,
        other => panic!("{name} is not a counter: {other:?}"),
    };
    let misses = counter("exec.plan_cache.misses");
    assert_eq!(misses, keys as u64);
    assert_eq!(
        counter("exec.plan_cache.hits") + misses,
        counter("serve.requests_served")
    );
    assert_eq!(
        value("exec.plan_cache.resident"),
        Some(MetricValue::Gauge(keys as i64))
    );
    for m in &snapshot {
        assert!(
            !m.name.ends_with(".measurements") && !m.name.ends_with(".reranks"),
            "{} survived the measured-evidence loop",
            m.name
        );
    }
    drop(client);
    server.shutdown();
}

/// A metrics scrape carries the five health numbers as gauges, selector `1`
/// returns the flight ring, and an unknown or missing selector is a typed
/// error on a connection that keeps serving.
#[test]
fn one_scrape_frame_carries_health_and_the_flight_ring() {
    use mttkrp_obs::MetricValue;
    let server = tiny_server();
    let mut client = mttkrp_serve::Client::connect(server.addr()).unwrap();
    let (x, a) = operands(&[4, 5, 6], 3, 8);
    client.mttkrp(&x, &a, 0).unwrap();
    let snapshot = client.stats().unwrap();
    let gauge = |name: &str| match snapshot.iter().find(|m| m.name == name) {
        Some(m) => match m.value {
            MetricValue::Gauge(v) => v,
            ref other => panic!("{name} is not a gauge: {other:?}"),
        },
        None => panic!("{name} is not in the scrape"),
    };
    assert!(gauge(metric::UPTIME_MS) >= 0);
    assert_eq!(gauge(metric::OPEN_CONNECTIONS), 1);
    // The worker frees the permit just after writing the reply.
    assert!((0..=1).contains(&gauge(metric::IN_FLIGHT)));
    assert_eq!(gauge(metric::DRAINING), 0);
    assert_eq!(gauge(metric::ADMISSION_CAP), 64);
    let ring = client.trace_dump().unwrap();
    assert!(!ring.is_empty(), "the served request closed into the ring");
    drop(client);

    let mut s = raw_hello(&server);
    for (tag, selector) in [(60, vec![2.0]), (61, vec![]), (62, vec![0.0, 0.0])] {
        let scrape = Frame::data(tag, Door::STATS, selector);
        let msg = error_text(&exchange(&mut s, &scrape, Door::ERROR));
        assert!(msg.contains("malformed payload"), "{msg}");
    }
    let text = exchange(
        &mut s,
        &Frame::data(63, Door::STATS, vec![0.0]),
        Door::STATS,
    );
    let Ok(Door::Stats { jsonl: text }) = Door::decode(&text, Dir::Answer, &[]) else {
        panic!("not a stats reply");
    };
    assert!(text.contains(metric::UPTIME_MS), "{text}");
    drop(s);
    assert_still_alive(server);
}

/// The hostile-frame property, generated from the front door's table: for
/// every row a client sends, its payload cut at each field boundary, each
/// length word at 0, 1, the word limit and one past it, and its sample
/// under an unknown kind. Each case is answered with a typed error; after a
/// malformed payload the same connection serves a good request bit for bit,
/// and after a kind the table does not read (a hang-up) a fresh one does.
#[test]
fn every_hostile_frame_of_the_table_is_a_typed_error_and_the_door_serves_on() {
    let server = tiny_server();
    // The rows' samples are sized `[2, 3]`, rank 2: keep such a tensor.
    let (x, a) = operands(&[2, 3], 2, 9);
    let keep = protocol::encode_mttkrp_request(1, &x, &a, 0);
    let refs: Vec<&Matrix> = a.iter().collect();
    let (_, direct) = mttkrp_exec::plan_and_execute(&machine(), &x, &refs, 1);
    let serves = |s: &mut TcpStream| {
        exchange(s, &keep, Door::MTTKRP_HELD);
        let reply = exchange(
            s,
            &protocol::mttkrp_message(None, &a, 1).frame(2),
            Door::MTTKRP_RESP,
        );
        assert_eq!(bits(&reply.payload[3..]), bits(direct.output.data()));
    };
    let mut s = raw_hello(&server);
    for row in Door::ROWS.iter().filter(|row| row.dir != Dir::Answer) {
        let unknown = (
            rows::sample(row),
            wire::CTRL_BASE,
            String::from("an unknown kind"),
        );
        let cases = (rows::hostile(row).into_iter()).map(|(why, words)| (words, row.id, why));
        for (words, id, why) in cases.chain([unknown]) {
            serves(&mut s);
            let reply = exchange(&mut s, &Frame::data(7, id, words), Door::ERROR);
            let msg = error_text(&reply);
            if msg.contains("unexpected frame kind") {
                drain_to_eof(s);
                s = raw_hello(&server);
            } else {
                assert!(
                    msg.contains("malformed payload"),
                    "{}: {why}: {msg}",
                    row.name
                );
            }
        }
    }
    serves(&mut s);
    drop(s);
    assert_still_alive(server);
}

/// A frame table as markdown, printed from its rows: `ends` names the
/// directions `Ask`, `Answer` and `Both`.
fn markdown(rows: &[wire::Row], retired: &[(u64, &str)], ends: [&str; 3]) -> String {
    let id = |id: u64| match u64::MAX - id {
        0 => "`MAX`".to_string(),
        _ if id == wire::DATA.id => "`< CTRL_BASE`".to_string(),
        k => format!("`MAX - {k}`"),
    };
    let mut out =
        "| frame | id | direction | payload |\n|-------|----|-----------|---------|\n".to_string();
    for row in rows {
        let field = |(name, kind, args): &(&str, &str, &[&str])| match args {
            [] => format!("{name}: {kind}"),
            args => format!("{name}: {kind}({})", args.join(", ")),
        };
        let fields: Vec<String> = row.fields.iter().map(field).collect();
        let payload = format!("`{}`", fields.join(", ")).replace("``", "—");
        let (name, dir) = (row.name, ends[row.dir as usize]);
        out += &format!("| `{name}` | {} | {dir} | {payload} |\n", id(row.id));
    }
    if !retired.is_empty() {
        let retired: Vec<_> = retired
            .iter()
            .map(|(k, why)| format!("{} ({why})", id(*k)))
            .collect();
        out += &format!("\nRetired ids: {}.\n", retired.join(", "));
    }
    out
}

/// The frame tables in ARCHITECTURE and in `protocol.rs`'s module doc are
/// the tables the code reads: printed from the rows (run with
/// `--nocapture` to see them), they must appear verbatim.
#[test]
fn frame_tables_match_the_docs() {
    let door = markdown(
        Door::ROWS,
        Door::RETIRED,
        ["client → server", "server → client", "both"],
    );
    let fabric = [&[wire::DATA][..], wire::Fabric::ROWS].concat();
    let ends = ["rank → launcher", "launcher → rank", "peer ↔ peer"];
    let fabric = markdown(&fabric, wire::Fabric::RETIRED, ends);
    println!("{door}\n{fabric}");
    let read = |path: &str| {
        std::fs::read_to_string(format!("{}/{path}", env!("CARGO_MANIFEST_DIR"))).unwrap()
    };
    let architecture = read("../../ARCHITECTURE.md");
    let protocol: String = (read("src/net/protocol.rs").lines())
        .filter_map(|l| l.strip_prefix("//!"))
        .map(|l| format!("{}\n", l.strip_prefix(' ').unwrap_or(l)))
        .collect();
    for (doc, text, table) in [
        ("ARCHITECTURE.md", &architecture, &door),
        ("ARCHITECTURE.md", &architecture, &fabric),
        ("protocol.rs", &protocol, &door),
    ] {
        assert!(
            text.contains(table.as_str()),
            "{doc} must show the table the code reads:\n{table}"
        );
    }
}

/// Reads until the server hangs up, proving it terminated the stream.
fn drain_to_eof(mut s: TcpStream) {
    loop {
        match wire::read_frame(&mut s) {
            Ok(_) => continue,
            Err(_) => return,
        }
    }
}

/// `ProtocolError` kinds a client can match on survive formatting.
#[test]
fn protocol_error_display_is_stable() {
    let e = ProtocolError::Unexpected {
        expected: "a request",
        got: Door::FIN,
    };
    assert!(e.to_string().contains("unexpected frame kind"));
}
