//! The gate on the socket path's copies: an allocation census of one served
//! request, shipped and kept.
//!
//! A shipped `Client::mttkrp` round trip carries I + Σₖ IₖR words to the
//! server and Iₙ·R back. The client streams the request from the caller's own
//! operands and the listener reads tensor and factors straight into the
//! buffers the worker computes on, so client and server *together* should
//! allocate about one request's worth of bytes per round trip — the operands
//! the worker needs — plus small change. The path this replaced built the
//! payload, its bytes, the received bytes, a re-framed copy, the decoded
//! words and the operands: six frame-sized buffers, ≈ 6× the wire bytes. The
//! bound asserted here, 1.5×, sits between the two.
//!
//! A kept round trip — the same tensor again, which the connection keeps —
//! carries only Σₖ IₖR words in, so it must allocate less than the tensor: no
//! side copies it. Its bound is 1.5× the bytes it puts on the wire both ways,
//! since its reply is no longer small beside its request.
//!
//! Lives in its own integration-test binary: the counting allocator is
//! process-wide (client thread, connection reader, and the worker that runs
//! the request and writes its reply all count), so nothing else may run
//! beside the test being measured; the tests take turns on one lock.

use mttkrp_dist::transport::wire;
use mttkrp_exec::MachineSpec;
use mttkrp_serve::net::listener::metric::IN_FLIGHT;
use mttkrp_serve::net::protocol;
use mttkrp_serve::{Client, NetConfig, NetServer, ServerConfig};
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use std::sync::Mutex;

#[path = "support/census.rs"]
mod support;
use support::census;

/// Held by the test being measured, so the other one allocates nothing
/// beside it.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The `serve-socket` shape: 48³, R = 16, a 0.86 MiB request.
const DIMS: [usize; 3] = [48, 48, 48];
const MODE: usize = 1;

/// Runs `request(round)` for 3 warm-up rounds, then 6 measured ones, against
/// a fresh server. Every measured round must allocate the same, over client
/// and server, and at most 1.5 × `wire_bytes`; returns its bytes.
fn census_of(what: &str, wire_bytes: usize, mut request: impl FnMut(&mut Client, usize)) -> u64 {
    let server = NetServer::start(NetConfig {
        server: ServerConfig {
            machine: MachineSpec::shared(1, 1 << 12),
            workers: 1,
            ..ServerConfig::default()
        },
        ..NetConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).unwrap();
    let mut round_trip = |round| {
        let before = census();
        request(&mut client, round);
        // The reply is written before its permit is dropped: once the slot
        // is free again, every thread the request touched is done with it.
        while server.metrics().gauge_value(IN_FLIGHT) != 0 {
            std::thread::yield_now();
        }
        let after = census();
        (after.0 - before.0, after.1 - before.1)
    };
    // Warm-up: the plan, every thread's chunk buffer, the metric families and
    // the queues' capacity are allocated once.
    for round in 0..3 {
        round_trip(round);
    }
    let rounds: Vec<(u64, u64)> = (3..9).map(round_trip).collect();
    let (bytes, calls) = rounds[0];
    println!(
        "census: {bytes} bytes in {calls} allocations per {what}, {:.2} × its {wire_bytes} \
         wire bytes",
        bytes as f64 / wire_bytes as f64
    );
    assert!(
        2 * bytes <= 3 * wire_bytes as u64,
        "one {what} allocated {bytes} bytes in {calls} calls: more than 1.5 × its {wire_bytes} \
         wire bytes"
    );
    assert!(
        rounds.iter().all(|round| *round == rounds[0]),
        "round trips allocated (bytes, calls) unlike the first: {rounds:?}"
    );
    drop(client);
    server.shutdown();
    bytes
}

#[test]
fn a_served_round_trip_allocates_one_request_not_six() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // A fresh tensor every round, built before the census starts, so every
    // request ships its tensor; the bound is on the request's bytes.
    let xs: Vec<DenseTensor> = (0..9)
        .map(|seed| DenseTensor::random(Shape::new(&DIMS), seed))
        .collect();
    let a: Vec<Matrix> = DIMS.iter().map(|&d| Matrix::random(d, 16, 4)).collect();
    let wire_bytes = wire::frame_wire_bytes(&protocol::encode_mttkrp_request(1, &xs[0], &a, MODE));
    let bytes = census_of("shipped round trip", wire_bytes, |client, round| {
        client.mttkrp(&xs[round], &a, MODE).unwrap();
    });
    let tensor = 8 * xs[0].num_entries() as u64;
    assert!(
        bytes >= tensor,
        "the census missed the server: {bytes} bytes is less than the tensor"
    );
}

#[test]
fn a_kept_round_trip_allocates_its_factors_not_the_tensor() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // One tensor throughout: the first warm-up round ships it, every later
    // round sends factors only. Its reply is no longer small beside its
    // request, so the bound is on the bytes both ways.
    let x = DenseTensor::random(Shape::new(&DIMS), 3);
    let a: Vec<Matrix> = DIMS.iter().map(|&d| Matrix::random(d, 16, 4)).collect();
    let request = wire::frame_wire_bytes(&protocol::mttkrp_message(None, &a, MODE).frame(1));
    let reply = wire::frame_wire_bytes(&wire::Frame::data(1, 0, vec![0.0; 3 + 48 * 16]));
    let bytes = census_of("kept round trip", request + reply, |client, _| {
        client.mttkrp(&x, &a, MODE).unwrap();
    });
    let tensor = 8 * x.num_entries() as u64;
    assert!(
        bytes < tensor,
        "a kept round trip allocated {bytes} bytes, no less than the tensor"
    );
}
