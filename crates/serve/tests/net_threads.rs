//! A served request costs no thread of its own: the worker that runs it
//! writes its reply. With K requests in flight on one connection, the
//! process holds exactly the threads it held with that connection idle.
//!
//! Lives in its own integration-test binary: `/proc/self/task` counts every
//! thread in the process, so nothing else may run beside the one test.

#![cfg(target_os = "linux")]

use mttkrp_dist::transport::wire;
use mttkrp_exec::MachineSpec;
use mttkrp_serve::net::listener::metric::IN_FLIGHT;
use mttkrp_serve::net::protocol::{self, FactorizeSpec};
use mttkrp_serve::{NetConfig, NetServer, ServerConfig};
use mttkrp_tensor::{DenseTensor, Shape};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .count()
}

#[test]
fn requests_in_flight_add_no_threads() {
    const K: u32 = 6;
    let server = NetServer::start(NetConfig {
        server: ServerConfig {
            machine: MachineSpec::shared(1, 1 << 12),
            workers: 1,
            ..ServerConfig::default()
        },
        ..NetConfig::default()
    })
    .expect("bind loopback");
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    wire::write_frame(&mut s, &protocol::encode_hello()).unwrap();
    wire::read_frame(&mut s).unwrap();
    let idle = threads();

    // K factorizations that cannot converge (`tol = 0`), unstreamed: one
    // runs on the only worker, the rest wait in the queue.
    let x = DenseTensor::random(Shape::new(&[5, 5, 5]), 3);
    let spec = FactorizeSpec {
        rank: 2,
        max_sweeps: 1_000_000,
        tol: 0.0,
        seed: 7,
        ridge: 1e-9,
    };
    for tag in 1..=K {
        let request = protocol::encode_factorize_request(tag, &x, &spec, false);
        wire::write_frame(&mut s, &request).unwrap();
    }
    let start = Instant::now();
    while server.metrics().gauge_value(IN_FLIGHT) != K as i64 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "requests never admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        threads(),
        idle,
        "{K} requests in flight changed the thread count"
    );

    for tag in 1..=K {
        wire::write_frame(&mut s, &protocol::encode_cancel(tag)).unwrap();
    }
    for _ in 0..K {
        let reply = wire::read_frame(&mut s).unwrap();
        let run = protocol::decode_factorize_response(&reply).expect("a factorize reply");
        assert!(run.cancelled, "an endless run only ends by cancel");
    }
    drop(s);
    server.shutdown();
}
