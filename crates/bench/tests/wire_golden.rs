//! The rank fabric's bytes, pinned: every frame kind a real `TcpTransport`
//! writes to a mesh whose other ranks are this test's sockets, and a real
//! launched rank program writes to this test as its launcher, compared by
//! FNV-1a digest with the bytes recorded when this test was written. The
//! operands are small integers, so the output chunks are exact; a port the
//! OS picks is zeroed before its frame is digested. `mttkrp-serve`'s
//! `wire_golden` pins the front door's frames.

use mttkrp_bench::dist_tcp::run_child_rank;
use mttkrp_core::Problem;
use mttkrp_dist::transport::wire::{write_frame, Frame};
use mttkrp_dist::{TcpConfig, TcpTransport};
use mttkrp_exec::{MachineSpec, Planner};
use mttkrp_netsim::{schedule::Phase, PeerExchange};
use mttkrp_obs::TraceContext;
use mttkrp_tensor::{Matrix, Shape};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

#[path = "../../serve/tests/support/golden.rs"]
mod golden;
use golden::{fnv1a, frame, listener, raw_frame, take_port};

const MAX: u64 = u64::MAX;
const TIMEOUT: Duration = Duration::from_secs(30);

/// A real rank 1 of three joins a mesh whose ranks 0 and 2 are this test,
/// sends data, poisons, and relays an abort; a real rank 0 of two publishes
/// its address table and says goodbye.
fn peer_frames() -> Vec<(&'static str, u64)> {
    let (l0, rendezvous) = listener();
    let rank1 = std::thread::spawn(move || {
        let (world_rank, ranks, timeout) = (1, 3, TIMEOUT);
        let config = TcpConfig {
            world_rank,
            ranks,
            rendezvous,
            timeout,
        };
        let mut ep = TcpTransport::connect(&config).unwrap();
        let world = ep.world();
        ep.begin_phase(Phase::TensorAllGather);
        ep.send(&world, 0, &[1.5, -2.0, 0.25]);
        ep.poison_all();
        let recv = std::panic::AssertUnwindSafe(|| ep.recv(&world, 0));
        assert!(
            std::panic::catch_unwind(recv).is_err(),
            "a poisoned rank aborts"
        );
    });
    let mut s0 = l0.accept().unwrap().0;
    let mut hello = raw_frame(&mut s0);
    let port = take_port(&mut hello);
    s0.write_all(&frame(0, MAX - 1, vec![0.0; 6])).unwrap();
    let mut s2 = TcpStream::connect(("127.0.0.1", port)).unwrap();
    s2.write_all(&frame(2, MAX, Vec::new())).unwrap();
    let data = raw_frame(&mut s0);
    let poison = raw_frame(&mut s0);
    assert_eq!(raw_frame(&mut s2), poison, "one poison frame to every peer");
    let mut poisoned = Vec::new();
    write_frame(&mut poisoned, &Frame::poison(0)).unwrap();
    s0.write_all(&poisoned).unwrap();
    let abort = raw_frame(&mut s2);
    rank1.join().unwrap();

    let (l, addr) = listener();
    let rank0 = std::thread::spawn(move || TcpTransport::host_on(l, 2, TIMEOUT).unwrap().finish());
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(&frame(1, MAX, vec![4242.0])).unwrap();
    let table = raw_frame(&mut s);
    let fin = raw_frame(&mut s);
    let mut goodbye = Vec::new();
    write_frame(&mut goodbye, &Frame::fin(1)).unwrap();
    s.write_all(&goodbye).unwrap();
    rank0.join().unwrap();
    let frames = [
        ("fabric.hello.port", hello),
        ("fabric.data", data),
        ("fabric.poison", poison),
        ("fabric.abort", abort),
        ("fabric.table", table),
        ("fabric.fin", fin),
    ];
    frames.map(|(name, f)| (name, fnv1a(&f))).to_vec()
}

/// Two real rank programs report in, are launched with a traced frame that
/// ships 3 x 4 x 2 operands of small integers, and report a chunk and a
/// ledger each.
fn launcher_frames() -> Vec<(&'static str, u64)> {
    let problem = Problem::from_shape(&Shape::new(&[3, 4, 2]), 2);
    let plan = Planner::new(MachineSpec::cluster(2, 1, 1 << 12)).plan_executable(&problem, 0);
    let x: Vec<f64> = (0..24).map(|i| f64::from(i % 5) - 2.0).collect();
    let a = |k: usize, d: usize| (0..2 * d).map(move |i| ((i + k) % 3) as f64 - 1.0);
    let factors = [3, 4, 2].into_iter().enumerate().flat_map(|(k, d)| a(k, d));
    let ops = [&[1.0, 3.0, 3.0, 4.0, 2.0, 2.0][..], &x]
        .into_iter()
        .flatten()
        .copied();
    let ops: Vec<f64> = ops.chain(factors).collect();
    let ctx = TraceContext {
        trace_hi: 0x0123_4567_89ab_cdef,
        trace_lo: 42,
        proc: 7,
        parent_span: 3,
    };
    let mut launch = Vec::new();
    write_frame(
        &mut launch,
        &Frame::data(0, MAX - 17, ops).with_trace(Some(ctx)),
    )
    .unwrap();
    let (l, report) = listener();
    let spawn = |me: usize, connect: String| {
        let (plan, report) = (plan.clone(), report.clone());
        std::thread::spawn(move || {
            // Regenerated operands the shipped ones replace.
            let (x, a) = mttkrp_bench::setup_problem(&[3, 4, 2], 2, 1);
            let refs: Vec<&Matrix> = a.iter().collect();
            run_child_rank(&plan, &x, &refs, me, 2, &connect, &report, 0, TIMEOUT).unwrap()
        })
    };
    let rank0 = spawn(0, String::new());
    let mut c0 = l.accept().unwrap().0;
    let mut ready0 = raw_frame(&mut c0);
    let port = take_port(&mut ready0);
    c0.write_all(&launch).unwrap();
    let rank1 = spawn(1, format!("127.0.0.1:{port}"));
    let mut c1 = l.accept().unwrap().0;
    let ready1 = raw_frame(&mut c1);
    c1.write_all(&launch).unwrap();
    let frames = [
        ("fabric.launch.traced", launch),
        ("fabric.ready.port", ready0),
        ("fabric.ready", ready1),
        ("fabric.chunk.0", raw_frame(&mut c0)),
        ("fabric.ledger.0", raw_frame(&mut c0)),
        ("fabric.chunk.1", raw_frame(&mut c1)),
        ("fabric.ledger.1", raw_frame(&mut c1)),
    ];
    rank0.join().unwrap();
    rank1.join().unwrap();
    frames.map(|(name, f)| (name, fnv1a(&f))).to_vec()
}

#[test]
fn every_rank_fabric_frame_keeps_its_bytes() {
    let got = [peer_frames(), launcher_frames()].concat();
    assert_eq!(got, GOLDEN, "digests now:\n{got:#x?}");
}

/// FNV-1a digests of each frame's bytes, recorded with the front door at
/// protocol version 3.
const GOLDEN: [(&str, u64); 13] = [
    ("fabric.hello.port", 0x433ecdb0370bd89b),
    ("fabric.data", 0x8226a812851533f3),
    ("fabric.poison", 0xca71726364ea8e08),
    ("fabric.abort", 0xfa9ac60f69638c47),
    ("fabric.table", 0x716e1b14fb954f6d),
    ("fabric.fin", 0x17afc68b8f9373a0),
    ("fabric.launch.traced", 0x1a1213726ddb1209),
    ("fabric.ready.port", 0x75657cfb52a60ad1),
    ("fabric.ready", 0x83826e4816e4d9b6),
    ("fabric.chunk.0", 0xb57c7cc6c77db08c),
    ("fabric.ledger.0", 0x66486f6550c91286),
    ("fabric.chunk.1", 0x0a4256681f33bdbb),
    ("fabric.ledger.1", 0xed169eced9ad9809),
];
