//! The front door's bytes, pinned: every frame kind a `Client` writes (read
//! by a stand-in server) and a `NetServer` writes back (fed closed-form
//! frames on a raw socket), compared by FNV-1a digest with the bytes
//! recorded when this test was written, at protocol version 3. The operands
//! are small integers, so a served sum is exact whatever order the kernel
//! adds in; of what the engine computes (a sweep's fit, a fitted model)
//! only the words it does not decide are pinned. `mttkrp-bench`'s
//! `wire_golden` pins the rank fabric's frames.

use mttkrp_exec::MachineSpec;
use mttkrp_serve::net::listener::metric;
use mttkrp_serve::net::protocol::FactorizeSpec;
use mttkrp_serve::{Client, NetConfig, NetServer, ServerConfig, StreamControl};
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

#[path = "support/golden.rs"]
mod golden;
use golden::{fnv1a, frame, listener, raw_frame};

const MAX: u64 = u64::MAX;

/// A 3 x 4 x 2 tensor and rank-2 factors, all small integers.
fn operands() -> (DenseTensor, Vec<Matrix>) {
    let data = (0..24).map(|i| f64::from(i % 5) - 2.0).collect();
    let x = DenseTensor::from_vec(Shape::new(&[3, 4, 2]), data);
    let factor = |(k, d): (usize, usize)| {
        let data = (0..2 * d).map(|i| ((i + k) % 3) as f64 - 1.0).collect();
        Matrix::from_rows_vec(d, 2, data)
    };
    (x, [3, 4, 2].into_iter().enumerate().map(factor).collect())
}

/// What `Client` writes for every kind it sends; the stand-in server
/// answers each frame it reads with the next reply below.
fn client_frames() -> Vec<(&'static str, u64)> {
    let (l, addr) = listener();
    let b: Vec<f64> = (0..8).map(f64::from).collect();
    let mut model = vec![0.0, 1.0, 1.0, 0.5, 2.0, 3.0, 3.0, 4.0, 2.0, 2.0, 2.5];
    model.extend((0..18).map(|i| f64::from(i) * 0.25));
    let nope = f64::from_le_bytes(*b"nope\0\0\0\0");
    let replies = [
        ("door.hello.client", frame(0, MAX, vec![3.0])),
        (
            "door.mttkrp_req",
            frame(1, MAX - 22, [&[3.0, 2.0, 0.0], &b[..6]].concat()),
        ),
        (
            "door.mttkrp_kept",
            frame(2, MAX - 8, [&[4.0, 2.0, 1.0][..], &b].concat()),
        ),
        (
            "door.factorize_req",
            frame(3, MAX - 10, vec![1.0, 0.5, f64::NAN]),
        ),
        ("door.cancel", frame(3, MAX - 9, model)),
        ("door.stats.metrics", frame(4, MAX - 14, vec![0.0])),
        ("door.stats.flight", frame(5, MAX - 14, vec![0.0])),
        (
            "door.mttkrp_kept.again",
            frame(6, MAX - 12, vec![4.0, nope]),
        ),
        ("door.mttkrp_req.again", frame(7, MAX - 13, vec![50.0])),
        ("door.fin", Vec::new()),
    ];
    let server = std::thread::spawn(move || {
        let (mut s, _) = l.accept().unwrap();
        let mut answer = |(name, reply): (&'static str, Vec<u8>)| {
            let digest = fnv1a(&raw_frame(&mut s));
            s.write_all(&reply).unwrap();
            (name, digest)
        };
        replies.map(&mut answer).to_vec()
    });
    let (x, a) = operands();
    let mut client = Client::connect(addr).unwrap();
    assert!(!client.mttkrp(&x, &a, 0).unwrap().cache_hit);
    assert!(client.mttkrp(&x, &a, 1).unwrap().cache_hit);
    let spec = FactorizeSpec {
        rank: 2,
        max_sweeps: 7,
        tol: 0.125,
        seed: 9,
        ridge: 0.5,
    };
    let cancel = |_: &_| StreamControl::Cancel;
    let fitted = client.factorize_streaming(&x, &spec, cancel).unwrap();
    assert_eq!(fitted.model.weights, [2.0, 2.5]);
    assert!(client.stats().unwrap().is_empty());
    assert!(client.trace_dump().unwrap().is_empty());
    assert!(client.mttkrp(&x, &a, 2).is_err(), "the typed error");
    assert!(client.mttkrp(&x, &a, 2).is_err(), "the retry-after");
    drop(client);
    server.join().unwrap()
}

/// What a `NetServer` writes back to closed-form request frames.
fn server_frames() -> Vec<(&'static str, u64)> {
    let config = ServerConfig {
        machine: MachineSpec::shared(1, 1 << 12),
        workers: 1,
        ..ServerConfig::default()
    };
    let (max_in_flight, server) = (1, config);
    let config = NetConfig {
        server,
        max_in_flight,
        ..NetConfig::default()
    };
    let server = NetServer::start(config).unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let (x, a) = operands();
    let a: Vec<f64> = a.iter().flat_map(|m| m.data().to_vec()).collect();
    let req = [&[0.0, 3.0, 3.0, 4.0, 2.0, 2.0][..], x.data(), &a].concat();
    // Each request asks for the only permit once the last one is back (a
    // worker frees it just after writing its reply).
    let idle = || {
        while server.metrics().gauge_value(metric::IN_FLIGHT) != 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let mut got = Vec::new();
    for (name, ask) in [
        ("door.hello.server", frame(0, MAX, vec![3.0])),
        ("door.mttkrp_held", frame(1, MAX - 6, req.clone())),
        (
            "door.mttkrp_resp",
            frame(2, MAX - 21, [&[1.0, 2.0][..], &a].concat()),
        ),
        ("door.error", frame(3, MAX - 14, vec![2.0])),
    ] {
        idle();
        s.write_all(&ask).unwrap();
        got.push((name, fnv1a(&raw_frame(&mut s))));
    }
    s.write_all(&frame(4, MAX - 14, vec![0.0])).unwrap();
    got.push(("door.stats.reply.header", fnv1a(&raw_frame(&mut s)[4..17])));
    // The factorization takes the only permit; the request behind it is shed.
    idle();
    let spec = [3.0, 3.0, 4.0, 2.0, 2.0, 1e9, 0.0, 5.0, 0.0, 1.0];
    s.write_all(&frame(5, MAX - 7, [&spec[..], x.data()].concat()))
        .unwrap();
    s.write_all(&frame(6, MAX - 6, req)).unwrap();
    let kind = |f: &[u8]| u64::from_le_bytes(f[8..16].try_into().unwrap());
    let (mut sweep, mut shed) = (None, None);
    while shed.is_none() || sweep.is_none() {
        let f = raw_frame(&mut s);
        match MAX - kind(&f) {
            10 => sweep = sweep.or(Some(f)),
            13 => shed = Some(f),
            k => panic!("unexpected frame kind MAX - {k}"),
        }
    }
    got.push(("door.retry_after", fnv1a(&shed.unwrap())));
    got.push(("door.sweep.head", fnv1a(&sweep.unwrap()[..25])));
    s.write_all(&frame(5, MAX - 11, Vec::new())).unwrap();
    let fitted = loop {
        let f = raw_frame(&mut s);
        if kind(&f) == MAX - 9 {
            break f;
        }
    };
    // [converged, cancelled, sweeps, fit, rank, order, dims.., λ.., A..]
    let word = |k: usize| f64::from_le_bytes(fitted[17 + 8 * k..][..8].try_into().unwrap());
    let head: Vec<f64> = [0, 1, 4, 5, 6, 7, 8].map(word).to_vec();
    assert_eq!(head, [0.0, 1.0, 2.0, 3.0, 3.0, 4.0, 2.0]);
    assert_eq!(fitted.len(), 17 + 8 * 29);
    got.push(("door.factorize_resp.header", fnv1a(&fitted[4..17])));
    drop(s);
    server.shutdown();
    got
}

#[test]
fn every_front_door_frame_keeps_its_bytes() {
    let got = [client_frames(), server_frames()].concat();
    assert_eq!(got, GOLDEN, "digests now:\n{got:#x?}");
}

/// FNV-1a digests of each frame's bytes, recorded at protocol version 3.
const GOLDEN: [(&str, u64); 18] = [
    ("door.hello.client", 0x60d9f8f3d26150f0),
    ("door.mttkrp_req", 0x96d9e9676c7c73d4),
    ("door.mttkrp_kept", 0x54d37472aa258608),
    ("door.factorize_req", 0x3347484132a8b37e),
    ("door.cancel", 0x1b96495f402dd258),
    ("door.stats.metrics", 0x104da84f0d9e46b6),
    ("door.stats.flight", 0x3044c6a2cfba76a4),
    ("door.mttkrp_kept.again", 0xed45e7dd3e41f429),
    ("door.mttkrp_req.again", 0xb2e33998658485ee),
    ("door.fin", 0x17afc68b8f9373a0),
    ("door.hello.server", 0x60d9f8f3d26150f0),
    ("door.mttkrp_held", 0x05237fd22aa98189),
    ("door.mttkrp_resp", 0xeadadedfeff04edf),
    ("door.error", 0x886522a3e9e1b85e),
    ("door.stats.reply.header", 0x0c9f927a755d7915),
    ("door.retry_after", 0xfbf1a38672438da8),
    ("door.sweep.head", 0x090b07c573c20508),
    ("door.factorize_resp.header", 0x2234201ca4d701f3),
];
