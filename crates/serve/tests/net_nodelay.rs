//! Streamed sweeps must arrive as they are produced.
//!
//! A streaming factorization answers with one small `SWEEP` frame per sweep,
//! back to back on one connection. If the accepted socket is left with
//! Nagle's algorithm on, the second small write waits in the server's kernel
//! for the ACK of the first, and the client's kernel delays that ACK by
//! ≈ 40 ms: the frames arrive in one clump at the end and the streamed run
//! takes ≈ 40 ms longer than the same run unstreamed (measured on loopback:
//! 44 ms against 9.5 ms). The listener therefore sets `TCP_NODELAY` on every
//! accepted connection, and every frame leaves in one write.

use mttkrp_exec::MachineSpec;
use mttkrp_serve::net::protocol::FactorizeSpec;
use mttkrp_serve::{Client, NetConfig, NetServer, ServerConfig, StreamControl};
use mttkrp_tensor::{DenseTensor, Shape};
use std::time::{Duration, Instant};

#[test]
fn streamed_sweeps_do_not_wait_out_a_delayed_ack() {
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
    // Small enough that 40 sweeps take well under 40 ms in a debug build too
    // (≈ 8 ms): a run longer than the delayed ACK hides the stall behind it.
    let x = DenseTensor::random(Shape::new(&[6, 6, 6]), 5);
    let spec = FactorizeSpec {
        rank: 2,
        max_sweeps: 40,
        tol: 0.0,
        seed: 1,
        ridge: 1e-9,
    };
    client.factorize(&x, &spec).unwrap(); // plans cached, threads warm

    // Best of three rounds: the cost of streaming over not streaming. The
    // kernel's delayed-ACK floor is ≈ 40 ms, so the 25 ms line sits between
    // "a few small writes" and "one stalled write", not at a tuned value.
    let mut extra = Duration::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        let plain = client.factorize(&x, &spec).unwrap();
        let unstreamed = start.elapsed();
        let mut seen = 0;
        let start = Instant::now();
        let streamed = client
            .factorize_streaming(&x, &spec, |_| {
                seen += 1;
                StreamControl::Continue
            })
            .unwrap();
        let streamed_for = start.elapsed();
        assert_eq!(seen, streamed.sweeps);
        assert_eq!(streamed.sweeps, plain.sweeps);
        assert!(seen >= 2, "one sweep cannot show a stall between frames");
        extra = extra.min(streamed_for.saturating_sub(unstreamed));
    }
    assert!(
        extra < Duration::from_millis(25),
        "streaming {} sweeps cost {extra:?} more than not streaming them",
        spec.max_sweeps
    );
    drop(client);
    server.shutdown();
}
