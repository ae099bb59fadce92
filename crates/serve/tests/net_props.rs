//! Protocol fuzz/property tests for the network front door.
//!
//! Three layers:
//!
//! 1. **Roundtrips.** Every payload encoding (`protocol::encode_* /
//!    decode_*`) survives encode→decode with bit-exact floats, across
//!    randomized shapes, ranks, specs, and text.
//! 2. **Adversarial streams.** A live [`NetServer`] fed truncated frames,
//!    oversized length prefixes, garbage bytes, hello replays, requests
//!    before hello, unknown frame kinds, and mid-request disconnects must
//!    answer with a typed error or drop the connection — never panic, and
//!    never wedge: the server still serves a fresh client and shuts down
//!    cleanly afterwards.
//! 3. **The kept tensor.** Hostile `KEPT`/`KEEP` frames get a typed error or
//!    a plain reply and the connection serves on; a version-1 peer is served
//!    byte for byte as before.
//! 4. **Scrape.** The plan-cache ledger as a `STATS` client reads it.

use mttkrp_als::{AlsConfig, AlsSweep};
use mttkrp_dist::transport::wire::{self, Frame};
use mttkrp_exec::MachineSpec;
use mttkrp_serve::net::listener::{metric, MAX_KEPT_BYTES};
use mttkrp_serve::net::protocol::{self, FactorizeSpec, ProtocolError};
use mttkrp_serve::{NetConfig, NetServer, ServerConfig};
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

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
        dims in prop::collection::vec(2usize..6, 2..=4),
        rank in 1usize..5,
        seed in 0u64..1000,
        tag in 1u32..10_000,
    ) {
        let (x, factors) = operands(&dims, rank, seed);
        for mode in 0..dims.len() {
            let frame = protocol::encode_mttkrp_request(tag, &x, &factors, mode);
            prop_assert_eq!(frame.from, tag);
            let req = protocol::decode_mttkrp_request(&frame).unwrap();
            prop_assert_eq!(req.mode, mode);
            prop_assert_eq!(req.tensor.shape().dims(), &dims[..]);
            prop_assert_eq!(bits(req.tensor.data()), bits(x.data()));
            prop_assert_eq!(req.factors.len(), factors.len());
            for (got, want) in req.factors.iter().zip(&factors) {
                prop_assert_eq!(got.rows(), want.rows());
                prop_assert_eq!(got.cols(), want.cols());
                prop_assert_eq!(bits(got.data()), bits(want.data()));
            }
        }
    }

    #[test]
    fn factorize_request_roundtrips_bit_exactly(
        dims in prop::collection::vec(2usize..6, 2..=4),
        rank in 1usize..5,
        max_sweeps in 1usize..100,
        tol_exp in 1i32..12,
        seed in 0u64..1000,
        stream in any::<bool>(),
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
        let frame = protocol::encode_factorize_request(tag, &x, &spec, stream);
        let (req, got_stream) = protocol::decode_factorize_request(&frame, &machine()).unwrap();
        prop_assert_eq!(got_stream, stream);
        prop_assert_eq!(req.tensor.shape().dims(), &dims[..]);
        prop_assert_eq!(bits(req.tensor.data()), bits(x.data()));
        prop_assert_eq!(req.config.rank, rank);
        prop_assert_eq!(req.config.max_sweeps, max_sweeps);
        prop_assert_eq!(req.config.tol.to_bits(), spec.tol.to_bits());
        prop_assert_eq!(req.config.seed, seed);
        prop_assert_eq!(req.config.ridge.to_bits(), spec.ridge.to_bits());
    }

    #[test]
    fn factorize_response_roundtrips_bit_exactly(
        dims in prop::collection::vec(2usize..6, 3..=3),
        rank in 1usize..4,
        seed in 0u64..100,
        tag in 1u32..10_000,
    ) {
        // A real (tiny) run, so the encoded model is a genuine AlsRun.
        let x = DenseTensor::random(Shape::new(&dims), seed);
        let config = AlsConfig::new(rank).with_sweeps(3).with_machine(machine());
        let run = mttkrp_als::cp_als(&x, &config);
        let frame = protocol::encode_factorize_response(tag, &run);
        let remote = protocol::decode_factorize_response(&frame).unwrap();
        prop_assert_eq!(remote.converged, run.converged);
        prop_assert_eq!(remote.cancelled, run.cancelled);
        prop_assert_eq!(remote.sweeps, run.sweeps());
        prop_assert_eq!(remote.fit.to_bits(), run.fit().to_bits());
        prop_assert_eq!(bits(&remote.model.weights), bits(&run.model.weights));
        for (got, want) in remote.model.factors.iter().zip(&run.model.factors) {
            prop_assert_eq!(bits(got.data()), bits(want.data()));
        }
    }

    #[test]
    fn sweep_error_retry_and_hello_roundtrip(
        sweep_no in 1usize..1_000_000,
        fit in -1.0f64..1.0,
        delta in -1.0f64..1.0,
        first in any::<bool>(),
        ms in 0u64..100_000,
        tag in 1u32..10_000,
        text_seed in 0usize..4,
    ) {
        let sweep = AlsSweep {
            sweep: sweep_no,
            fit,
            delta_fit: (!first).then_some(delta),
            cache_hits: 0,
            cache_misses: 0,
            tensor_passes: 0,
            mode_times: Vec::new(),
            mode_plan_times: Vec::new(),
            mode_exec_times: Vec::new(),
            elapsed: Duration::ZERO,
        };
        let update = protocol::decode_sweep(&protocol::encode_sweep(tag, &sweep)).unwrap();
        prop_assert_eq!(update.sweep, sweep_no);
        prop_assert_eq!(update.fit.to_bits(), fit.to_bits());
        prop_assert_eq!(update.delta_fit.is_none(), first);
        if let Some(d) = update.delta_fit {
            prop_assert_eq!(d.to_bits(), delta.to_bits());
        }

        let messages = ["", "plain ascii", "snowman ☃ and π", "trailing\nnewline\n"];
        let msg = messages[text_seed];
        let err = protocol::decode_error(&protocol::encode_error(tag, msg)).unwrap();
        prop_assert_eq!(err, msg);

        let got_ms =
            protocol::decode_retry_after(&protocol::encode_retry_after(tag, ms)).unwrap();
        prop_assert_eq!(got_ms, ms);

        let version = protocol::decode_hello(&protocol::encode_hello()).unwrap();
        prop_assert_eq!(version, protocol::PROTOCOL_VERSION);
    }

    #[test]
    fn corrupted_request_payloads_never_panic_the_decoders(
        dims in prop::collection::vec(2usize..6, 2..=4),
        rank in 1usize..5,
        seed in 0u64..1000,
        cut_frac in 0.0f64..1.0,
        smash_at_frac in 0.0f64..1.0,
        smash_to in any::<u64>(),
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
        let _ = protocol::decode_factorize_request(&Frame {
            comm_id: wire::CTRL_FACTORIZE_REQ,
            ..smashed
        }, &machine());
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
    wire::write_frame(&mut s, &protocol::encode_hello()).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(
        protocol::decode_hello(&reply).unwrap(),
        protocol::PROTOCOL_VERSION
    );
    s
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
    wire::write_frame(&mut s, &protocol::encode_hello()).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(
        reply.comm_id,
        wire::CTRL_ERROR,
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
    assert_eq!(reply.comm_id, wire::CTRL_ERROR);
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
        assert_eq!(reply.comm_id, wire::CTRL_ERROR, "kind {kind:#x}");
        drain_to_eof(s);
    }
    // A poison frame aimed at the front door.
    let mut s = raw_hello(&server);
    wire::write_frame(&mut s, &Frame::poison(3)).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(reply.comm_id, wire::CTRL_ERROR);
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
    assert_eq!(reply.comm_id, wire::CTRL_ERROR);
    assert_eq!(
        reply.from, 7,
        "the error is tagged for the offending request"
    );
    // The frame itself was well-formed, so the stream is still in sync:
    // the same socket must serve a valid request afterwards.
    wire::write_frame(&mut s, &protocol::encode_mttkrp_request(8, &x, &factors, 1)).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(reply.comm_id, wire::CTRL_MTTKRP_RESP);
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
        assert_eq!(reply.comm_id, wire::CTRL_ERROR, "request {tag}");
        assert_eq!(reply.from, tag);
        let msg = protocol::decode_error(&reply).unwrap();
        assert!(msg.contains("malformed payload"), "{msg}");
    }
    wire::write_frame(&mut s, &good).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(reply.from, 21);
    let remote = protocol::decode_mttkrp_response(&reply).unwrap();
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
    wire::write_frame(
        &mut s,
        &protocol::encode_factorize_request(2, &x, &spec, false),
    )
    .unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(reply.comm_id, wire::CTRL_ERROR);
    let msg = protocol::decode_error(&reply).unwrap();
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
            wire::CTRL_HELLO,
            vec![protocol::PROTOCOL_VERSION as f64 + 1.0],
        ),
    )
    .unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(reply.comm_id, wire::CTRL_ERROR);
    let msg = protocol::decode_error(&reply).unwrap();
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

/// `KEPT` before any `KEEP`, with a hostile head, and after a malformed
/// `KEEP`, then a `KEEP` over the kept-bytes bound: each is a typed error or
/// a plain reply, and the connection keeps serving — and keeping — in sync.
#[test]
fn hostile_kept_frames_get_typed_errors_in_sync() {
    let server = tiny_server();
    let mut s = raw_hello(&server);
    let (x, a) = operands(&[4, 5, 6], 3, 3);
    let keep = Frame {
        comm_id: wire::CTRL_MTTKRP_KEEP,
        ..protocol::encode_mttkrp_request(30, &x, &a, 0)
    };
    let good = protocol::encode_mttkrp_kept(31, &a, 1);
    // A reply of `kind`, bit-equal to an in-process call on `x`.
    let refs: Vec<&Matrix> = a.iter().collect();
    let served = |s: &mut TcpStream, frame: &Frame, kind: u64| {
        let reply = exchange(s, frame, kind).payload;
        let mode = frame.payload[0] as usize;
        let (_, direct) = mttkrp_exec::plan_and_execute(&machine(), &x, &refs, mode);
        assert_eq!(bits(&reply[4..]), bits(direct.output.data()));
    };
    let nothing_kept = |s: &mut TcpStream| {
        let reply = exchange(s, &good, wire::CTRL_ERROR);
        let msg = protocol::decode_error(&reply).unwrap();
        assert!(msg.contains("no tensor is kept"), "{msg}");
    };
    nothing_kept(&mut s);
    served(&mut s, &keep, wire::CTRL_MTTKRP_HELD);
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
        let msg = protocol::decode_error(&exchange(&mut s, &bad, wire::CTRL_ERROR)).unwrap();
        assert!(msg.contains("malformed payload"), "{msg}");
    }
    // Refused `KEPT`s leave the kept tensor in place...
    served(&mut s, &good, wire::CTRL_MTTKRP_RESP);
    // ...and a malformed `KEEP` drops it before its body is read.
    let mut malformed = keep.clone();
    malformed.payload.pop();
    exchange(&mut s, &malformed, wire::CTRL_ERROR);
    nothing_kept(&mut s);

    // 2048 x 2049 ones, 16 KiB over the bound, streamed from one column.
    let dims = [2048usize, 2049];
    assert!(8 * (dims[0] * dims[1]) as u64 > MAX_KEPT_BYTES);
    let column = vec![1.0; dims[0]];
    let big: Vec<Matrix> = dims.iter().map(|&d| Matrix::random(d, 1, 5)).collect();
    let head = [&[0.0][..], &wire::operand_head(&dims, 1)].concat();
    let mut parts = vec![&head[..]];
    parts.extend(std::iter::repeat_n(&column[..], dims[1]));
    parts.extend(big.iter().map(Matrix::data));
    wire::write_parts(&mut s, 32, wire::CTRL_MTTKRP_KEEP, None, &parts).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(reply.comm_id, wire::CTRL_MTTKRP_RESP, "served, not kept");
    let sum: f64 = big[1].data().iter().sum();
    let remote = protocol::decode_mttkrp_response(&reply).unwrap();
    assert!(remote.output.data().iter().all(|&b| b == sum));
    assert_eq!(server.metrics().gauge_value(metric::KEPT_BYTES), 0);
    nothing_kept(&mut s);

    served(&mut s, &keep, wire::CTRL_MTTKRP_HELD);
    served(&mut s, &good, wire::CTRL_MTTKRP_RESP);
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

#[test]
fn a_version_1_peer_is_served_byte_for_byte_as_before() {
    let server = tiny_server();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let hello = Frame::data(0, wire::CTRL_HELLO, vec![1.0]);
    wire::write_frame(&mut s, &hello).unwrap();
    let reply = wire::read_frame(&mut s).unwrap();
    assert_eq!(bytes_of(&reply), bytes_of(&hello), "answered in version 1");
    let (x, a) = operands(&[4, 5, 6], 3, 6);
    let request = protocol::encode_mttkrp_request(50, &x, &a, 1);
    wire::write_frame(&mut s, &request).unwrap();
    let got = bytes_of(&wire::read_frame(&mut s).unwrap());
    // `[rows, cols, cache_hit, batch_size, B..]` under MTTKRP_RESP. The
    // socket's request planned the key, so the in-process call hits.
    let mut direct = server
        .server()
        .call(protocol::decode_mttkrp_request(&request).unwrap());
    direct.cache_hit = false;
    let want = protocol::encode_mttkrp_response(50, &direct);
    assert_eq!(want.payload[..4], [5.0, 3.0, 0.0, 1.0]);
    assert_eq!(got, bytes_of(&want));
    // The kept tensor's kinds are unknown to version 1: a typed error, a
    // hang-up, and nothing kept.
    let keep = Frame {
        comm_id: wire::CTRL_MTTKRP_KEEP,
        ..request
    };
    exchange(&mut s, &keep, wire::CTRL_ERROR);
    drain_to_eof(s);
    assert_eq!(server.metrics().gauge_value(metric::KEPT_BYTES), 0);
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
/// lookup per batch, and nothing but the lookup ledger.
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
        counter("serve.batches")
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
        got: wire::CTRL_FIN,
    };
    assert!(e.to_string().contains("unexpected frame kind"));
}
