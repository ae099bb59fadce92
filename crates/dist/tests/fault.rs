//! Fault injection: a rank that dies mid-collective must abort every peer
//! within a bounded time — no deadlock — and the *original* failure must
//! be what propagates, on both transports.
//!
//! Every scenario runs under a watchdog: the machine is driven on a
//! helper thread and the test fails if it does not resolve within
//! `WATCHDOG` — a hang is reported as a failure, not as a stuck test
//! suite. (The multi-process SIGKILL variant of these scenarios lives in
//! `crates/bench/tests/tcp_cli.rs`, where the CLI launcher can kill real
//! rank processes.)

use mttkrp_dist::transport::{wire, TcpTransport};
use mttkrp_netsim::schedule::Phase;
use mttkrp_netsim::{collectives, run_spmd, PeerExchange};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[path = "../../serve/tests/support/watchdog.rs"]
mod watchdog;
use watchdog::bounded;

const WATCHDOG: Duration = Duration::from_secs(60);

/// The panic payload as text, however it was thrown.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
    let text = text.or_else(|| payload.downcast_ref::<String>().cloned());
    text.unwrap_or_else(|| "non-string panic payload".to_string())
}

/// What `ep` aborts with while it blocks on a message from rank `src`.
fn blocked_recv_text(ep: &mut TcpTransport, src: usize) -> String {
    let world = ep.world();
    ep.begin_phase(Phase::TensorAllGather);
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ep.recv(&world, src)));
    panic_text(out.expect_err("a blocked rank must abort"))
}

/// One rank panics just before the collective; every other rank is
/// blocked inside it. The machine must wind down and rethrow the
/// original panic.
fn panic_mid_collective<T: PeerExchange>(endpoints: Vec<T>) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        run_spmd(endpoints, |ep| {
            let world = ep.world();
            let me = ep.world_rank();
            ep.begin_phase(Phase::TensorAllGather);
            if me == 1 {
                panic!("injected fault on rank 1");
            }
            collectives::all_gather(ep, &world, &vec![me as f64; 64])
        })
    }));
    let msg = panic_text(result.expect_err("the machine must fail"));
    assert!(
        msg.contains("injected fault on rank 1"),
        "the original failure must propagate, got: {msg}"
    );
}

#[test]
fn channel_rank_panic_aborts_all_peers_bounded() {
    bounded(WATCHDOG, || panic_mid_collective(mttkrp_netsim::wire(4)));
}

#[test]
fn tcp_rank_panic_aborts_all_peers_bounded() {
    bounded(WATCHDOG, || {
        let eps = TcpTransport::wire_loopback(4, Duration::from_secs(30)).unwrap();
        panic_mid_collective(eps)
    });
}

/// A TCP rank that vanishes *without* a poison frame (dropped transport =
/// closed sockets, the observable shape of SIGKILL) must still abort a
/// peer blocked on it, with a diagnostic naming the lost peer — however the
/// scheduler orders the events. When rank 2 aborts its own sockets close,
/// and a starved reader thread on rank 1 can deliver that loss before rank
/// 0's; rank 2 relays the cause first, so rank 1 names rank 0 either way.
/// Looped under spinner threads that keep every core busy, the load under
/// which one run in six used to name rank 2.
#[test]
fn tcp_silent_death_aborts_blocked_peer_bounded() {
    let stop = Arc::new(AtomicBool::new(false));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spin = |stop: Arc<AtomicBool>| move || while !stop.load(Ordering::Relaxed) {};
    let spinners: Vec<_> = (0..cores)
        .map(|_| std::thread::spawn(spin(stop.clone())))
        .collect();
    let outcome = std::panic::catch_unwind(|| {
        bounded(WATCHDOG, || {
            for round in 0..200 {
                silent_death_names_the_lost_rank(round);
            }
        })
    });
    stop.store(true, Ordering::Relaxed);
    for spinner in spinners {
        spinner.join().expect("spinner thread panicked");
    }
    if let Err(payload) = outcome {
        std::panic::resume_unwind(payload);
    }
}

fn silent_death_names_the_lost_rank(round: usize) {
    let mut eps = TcpTransport::wire_loopback(3, Duration::from_secs(30)).unwrap();
    let e2 = eps.pop().unwrap();
    let e1 = eps.pop().unwrap();
    let e0 = eps.pop().unwrap();
    // Rank 0 "is killed": no FIN, no poison, sockets just close.
    drop(e0);
    let block = |mut ep: TcpTransport| std::thread::spawn(move || blocked_recv_text(&mut ep, 0));
    let (t1, t2) = (block(e1), block(e2));
    for t in [t1, t2] {
        let msg = t.join().unwrap();
        assert!(
            msg.contains("peer rank 0 connection lost"),
            "round {round}: peers must name the lost rank, got: {msg}"
        );
    }
}

/// A poison frame (announced panic) beats silence: the peer aborts with
/// the "panicked" diagnostic even though the connection also dies.
#[test]
fn tcp_poison_frame_reports_the_panic_bounded() {
    bounded(WATCHDOG, || {
        let mut eps = TcpTransport::wire_loopback(2, Duration::from_secs(30)).unwrap();
        let mut e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let blocked = std::thread::spawn(move || blocked_recv_text(&mut e1, 0));
        std::thread::sleep(Duration::from_millis(30));
        e0.poison_all();
        drop(e0);
        let msg = blocked.join().unwrap();
        assert!(msg.contains("peer rank 0 panicked"), "got: {msg}");
    });
}

/// Whole-machine fault during a real MTTKRP: one rank of an Algorithm 3
/// run panics inside the factor all-gather (simulating a node loss
/// mid-algorithm); the run must abort on both transports with the
/// original failure.
#[test]
fn mttkrp_run_survives_rank_loss_without_deadlock() {
    for tcp in [false, true] {
        bounded(WATCHDOG, move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                if tcp {
                    let eps = TcpTransport::wire_loopback(4, Duration::from_secs(30)).unwrap();
                    run_spmd(eps, fault_program)
                } else {
                    run_spmd(mttkrp_netsim::wire(4), fault_program)
                }
            }));
            let msg = panic_text(result.expect_err("the machine must fail"));
            assert!(
                msg.contains("node 2 lost"),
                "transport tcp={tcp}: original failure must propagate, got: {msg}"
            );
        });
    }
}

/// Shared rank program for [`mttkrp_run_survives_rank_loss_without_deadlock`]:
/// two ring steps, then rank 2 dies mid-phase.
fn fault_program<T: PeerExchange>(ep: &mut T) -> Vec<f64> {
    let world = ep.world();
    let me = ep.world_rank();
    ep.begin_phase(Phase::FactorAllGather { mode: 0 });
    let gathered = collectives::all_gather(ep, &world, &[me as f64]);
    ep.begin_phase(Phase::OutputReduceScatter);
    if me == 2 {
        panic!("node 2 lost");
    }
    collectives::reduce_scatter(ep, &world, &gathered, &[1, 1, 1, 1])
}

/// Frames that reach a reader garbled (a corrupt length prefix) are a
/// connection-level failure, not a hang: the receiving rank aborts.
#[test]
fn tcp_garbled_stream_aborts_the_receiver_bounded() {
    bounded(WATCHDOG, || {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // A fake rank 1 that speaks a valid HELLO, then garbage.
        let rogue = std::thread::spawn(move || {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            let hello = wire::Frame::data(1, wire::Fabric::HELLO, vec![1.0]);
            wire::write_frame(&mut &stream, &hello).unwrap();
            // Table comes back; ignore it, then send an impossible frame.
            let _ = wire::read_frame(&mut &stream);
            (&stream).write_all(&u32::MAX.to_le_bytes()).unwrap();
            (&stream).write_all(&[0u8; 64]).unwrap();
            // Keep the socket open so only the garbage can unblock rank 0.
            std::thread::sleep(Duration::from_secs(5));
        });
        let mut e0 = TcpTransport::host_on(listener, 2, Duration::from_secs(30)).unwrap();
        let msg = blocked_recv_text(&mut e0, 1);
        assert!(msg.contains("connection lost"), "got: {msg}");
        drop(e0);
        rogue.join().unwrap();
    });
}
