//! The gate on the socket path's copies: an allocation census of one served
//! request.
//!
//! A `Client::mttkrp` round trip carries I + Σₖ IₖR words to the server and
//! Iₙ·R back. The client streams the request from the caller's own operands
//! and the listener reads tensor and factors straight into the buffers the
//! worker computes on, so client and server *together* should allocate about
//! one request's worth of bytes per round trip — the operands the worker
//! needs — plus small change. The path this replaced built the payload, its
//! bytes, the received bytes, a re-framed copy, the decoded words and the
//! operands: six frame-sized buffers, ≈ 6× the wire bytes. The bound asserted
//! here, 1.5×, sits between the two.
//!
//! Lives in its own integration-test binary: the counting allocator is
//! process-wide (client thread, connection reader, and the worker that runs
//! the request and writes its reply all count), so nothing else may run
//! beside the one test.

use mttkrp_dist::transport::wire;
use mttkrp_exec::MachineSpec;
use mttkrp_serve::net::listener::metric::IN_FLIGHT;
use mttkrp_serve::net::protocol;
use mttkrp_serve::{Client, NetConfig, NetServer, ServerConfig};
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Census;

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// touch no allocator state.
unsafe impl GlobalAlloc for Census {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grown buffer may be moved whole: count all of it.
        count(new_size);
        // SAFETY: as `dealloc`, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Census = Census;

/// (bytes, calls) allocated so far, process-wide.
fn census() -> (u64, u64) {
    (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed))
}

#[test]
fn a_served_round_trip_allocates_one_request_not_six() {
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

    // The `serve-socket` shape: 48³, R = 16, a 0.86 MiB request.
    let dims = [48usize, 48, 48];
    let x = DenseTensor::random(Shape::new(&dims), 3);
    let factors: Vec<Matrix> = dims.iter().map(|&d| Matrix::random(d, 16, 4)).collect();
    let wire_bytes = wire::frame_wire_bytes(&protocol::encode_mttkrp_request(1, &x, &factors, 1));

    let mut round_trip = || {
        let before = census();
        client.mttkrp(&x, &factors, 1).unwrap();
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
    for _ in 0..3 {
        round_trip();
    }
    let rounds: Vec<(u64, u64)> = (0..6).map(|_| round_trip()).collect();

    let (bytes, calls) = rounds[0];
    println!(
        "census: {bytes} bytes in {calls} allocations per round trip, {:.2} × the {wire_bytes} wire bytes",
        bytes as f64 / wire_bytes as f64
    );
    assert!(
        2 * bytes <= 3 * wire_bytes as u64,
        "one round trip allocated {bytes} bytes in {calls} calls: more than 1.5 × the \
         request's {wire_bytes} wire bytes"
    );
    assert!(
        bytes >= (8 * x.data().len()) as u64,
        "the census missed the server: {bytes} bytes is less than the tensor"
    );
    for (i, round) in rounds.iter().enumerate() {
        assert_eq!(
            *round, rounds[0],
            "round trip {i} allocated (bytes, calls) unlike the first: {rounds:?}"
        );
    }
    drop(client);
    server.shutdown();
}
