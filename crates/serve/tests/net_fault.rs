//! Fault injection for the network front door: peers that vanish and
//! servers that shut down under live traffic must resolve within a
//! bounded time — workers freed, in-flight requests answered, nothing
//! wedged.
//!
//! Every scenario runs under a watchdog (the pattern from
//! `crates/dist/tests/fault.rs`): a hang is reported as a test failure,
//! not a stuck suite.

use mttkrp_dist::transport::wire::{self, Door};
use mttkrp_serve::net::listener::{self, metric};
use mttkrp_serve::net::protocol::{self, FactorizeSpec};
use mttkrp_serve::{Client, ClientError, NetConfig, NetServer, ServerConfig, StreamControl};
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[path = "support/watchdog.rs"]
mod watchdog;
use watchdog::bounded;

#[path = "support/net.rs"]
mod net;
use net::{capped_server, endless_spec, wait_until};

const WATCHDOG: Duration = Duration::from_secs(60);

/// Says hello on a raw socket.
fn hello(s: &mut TcpStream) {
    let version = protocol::PROTOCOL_VERSION;
    Door::Hello { version }.write(s, 0, None).unwrap();
}

/// A client that vanishes mid-streaming-factorize (socket dropped, no FIN
/// frame, no cancel) must have its run cancelled at the next sweep
/// boundary — the worker is freed, the in-flight slot drains, and the
/// server keeps serving.
#[test]
fn a_vanished_client_frees_its_worker() {
    bounded(WATCHDOG, || {
        let server = capped_server(1, 20);
        let addr = server.addr();

        // Raw socket, so no Drop impl sends a polite FIN on our behalf.
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        hello(&mut s);
        wire::read_frame(&mut s).unwrap();
        let x = DenseTensor::random(Shape::new(&[6, 6, 6]), 3);
        let request = endless_spec(7).request(&x, true);
        request.write(&mut s, 1, None).unwrap();
        // Proof the run is alive: a couple of streamed sweeps arrive.
        for _ in 0..2 {
            let f = wire::read_frame(&mut s).unwrap();
            assert_eq!(f.comm_id, Door::SWEEP);
        }
        drop(s); // vanish

        // The worker must come back on its own.
        wait_until(
            WATCHDOG,
            "the vanished client's run to be cancelled",
            || {
                server
                    .metrics()
                    .counter_value("serve.factorizations_cancelled")
                    == 1
            },
        );
        wait_until(WATCHDOG, "the in-flight slot to drain", || {
            server.metrics().gauge_value(metric::IN_FLIGHT) == 0
        });

        // The freed worker serves the next client.
        let mut client = Client::connect(addr).unwrap();
        let spec = FactorizeSpec {
            max_sweeps: 2,
            tol: 1e-8,
            ..endless_spec(7)
        };
        let run = client.factorize(&x, &spec).expect("worker was freed");
        assert_eq!(run.sweeps, 2);
        drop(client);
        server.shutdown();
    });
}

/// An explicit cancel frame does the same, and the cancelling client gets
/// its partial model back with `cancelled = true`.
#[test]
fn an_explicit_cancel_returns_the_partial_model() {
    bounded(WATCHDOG, || {
        let server = capped_server(1, 20);
        let mut client = Client::connect(server.addr()).unwrap();
        let x = DenseTensor::random(Shape::new(&[6, 6, 6]), 3);
        let mut sweeps_seen = 0usize;
        let run = client
            .factorize_streaming(&x, &endless_spec(7), |update| {
                sweeps_seen += 1;
                assert_eq!(update.sweep, sweeps_seen, "sweeps stream in order");
                if sweeps_seen >= 3 {
                    StreamControl::Cancel
                } else {
                    StreamControl::Continue
                }
            })
            .expect("a cancelled run still answers");
        assert!(run.cancelled);
        assert!(!run.converged);
        assert!(
            run.sweeps >= 3,
            "cancel lands at a sweep boundary at the earliest"
        );
        assert_eq!(run.model.factors.len(), 3);
        assert_eq!(
            server
                .metrics()
                .counter_value("serve.factorizations_cancelled"),
            1
        );
        drop(client);
        server.shutdown();
    });
}

/// Shutdown under live traffic: the in-flight request is answered (its
/// reply frame written, not torn off), connects during the drain are told
/// to retry, and the whole drain resolves within the watchdog.
#[test]
fn shutdown_drains_in_flight_and_sheds_new_connects() {
    bounded(WATCHDOG, || {
        let server = capped_server(2, 20);
        let addr = server.addr();

        // Hold one slot with an endless streaming run we control.
        let release = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let holder = {
            let release = std::sync::Arc::clone(&release);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let x = DenseTensor::random(Shape::new(&[6, 6, 6]), 9);
                client
                    .factorize_streaming(&x, &endless_spec(7), |_| {
                        if release.load(std::sync::atomic::Ordering::Acquire) {
                            StreamControl::Cancel
                        } else {
                            StreamControl::Continue
                        }
                    })
                    .expect("the drain answers the in-flight run")
            })
        };
        wait_until(WATCHDOG, "the held run to be admitted", || {
            server.metrics().gauge_value(metric::IN_FLIGHT) == 1
        });

        // Shut down while it runs.
        let shutdown = std::thread::spawn(move || server.shutdown());

        // New connects during the drain are shed at the handshake. (Poll:
        // the drain flag flips a moment after the shutdown call.)
        wait_until(WATCHDOG, "the drain to start shedding new connects", || {
            match Client::connect(addr) {
                Err(ClientError::RetryAfter(after)) => {
                    assert_eq!(after, Duration::from_millis(20));
                    true
                }
                Ok(_) => false, // drain not observed yet; try again
                Err(e) => panic!("a draining server sheds politely, got: {e}"),
            }
        });

        // Release the held run: the drain can now finish.
        release.store(true, std::sync::atomic::Ordering::Release);
        let run = holder.join().expect("holder panicked");
        assert!(
            run.cancelled,
            "the run ended by our cancel, not by the shutdown"
        );
        let stats = shutdown.join().expect("shutdown panicked");
        assert_eq!(stats.factorizations_served, 1);
    });
}

/// Requests that arrive on an existing connection during the drain are
/// shed too (not just new connects).
#[test]
fn requests_on_live_connections_are_shed_during_drain() {
    bounded(WATCHDOG, || {
        let server = capped_server(2, 20);
        let addr = server.addr();
        // A connection established well before the drain.
        let mut early = Client::connect(addr).unwrap();

        let release = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let holder = {
            let release = std::sync::Arc::clone(&release);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let x = DenseTensor::random(Shape::new(&[6, 6, 6]), 9);
                client
                    .factorize_streaming(&x, &endless_spec(7), |_| {
                        if release.load(std::sync::atomic::Ordering::Acquire) {
                            StreamControl::Cancel
                        } else {
                            StreamControl::Continue
                        }
                    })
                    .expect("drain answers in-flight work")
            })
        };
        wait_until(WATCHDOG, "the held run to be admitted", || {
            server.metrics().gauge_value(metric::IN_FLIGHT) == 1
        });
        let shutdown = std::thread::spawn(move || server.shutdown());

        // The early connection's requests now shed. Retry until the drain
        // flag is observably set (the shutdown thread races us to it).
        let x = DenseTensor::random(Shape::new(&[4, 4, 4]), 2);
        let factors: Vec<Matrix> = (0..3).map(|k| Matrix::random(4, 2, k as u64)).collect();
        let mut saw_shed = false;
        for _ in 0..1000 {
            match early.mttkrp(&x, &factors, 0) {
                Err(ClientError::RetryAfter(_)) => {
                    saw_shed = true;
                    break;
                }
                Ok(_) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => panic!("shed or served, never broken: {e}"),
            }
        }
        assert!(saw_shed, "the drain never started shedding");

        release.store(true, std::sync::atomic::Ordering::Release);
        holder.join().expect("holder panicked");
        drop(early);
        shutdown.join().expect("shutdown panicked");
    });
}

/// Dropping the `NetServer` (no explicit shutdown) performs the same
/// bounded drain — nothing leaks, nothing hangs.
#[test]
fn dropping_the_server_is_a_graceful_drain() {
    bounded(WATCHDOG, || {
        let server = capped_server(2, 20);
        let mut client = Client::connect(server.addr()).unwrap();
        let x = DenseTensor::random(Shape::new(&[5, 5, 5]), 1);
        let factors: Vec<Matrix> = (0..3).map(|k| Matrix::random(5, 2, k as u64)).collect();
        client.mttkrp(&x, &factors, 0).unwrap();
        drop(client);
        drop(server); // must not hang
    });
}

/// A client whose socket dies mid-*response* (the server wrote, nobody
/// read) must not wedge the server: write failures are the peer's
/// problem.
#[test]
fn a_client_that_never_reads_its_reply_costs_nothing() {
    bounded(WATCHDOG, || {
        let server = capped_server(1, 20);
        let addr = server.addr();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        hello(&mut s);
        wire::read_frame(&mut s).unwrap();
        let x = DenseTensor::random(Shape::new(&[4, 4, 4]), 2);
        let factors: Vec<Matrix> = (0..3).map(|k| Matrix::random(4, 2, k as u64)).collect();
        wire::write_frame(&mut s, &protocol::encode_mttkrp_request(1, &x, &factors, 0)).unwrap();
        drop(s); // gone before the reply lands

        // The in-flight gauge starts at zero, so wait for the abandoned
        // request to be *admitted* before waiting for it to drain —
        // otherwise the follow-up request below races it for the only
        // permit.
        wait_until(WATCHDOG, "the abandoned request to be admitted", || {
            server.metrics().counter_value(metric::REQUESTS) == 1
        });
        wait_until(WATCHDOG, "the abandoned request to drain", || {
            server.metrics().gauge_value(metric::IN_FLIGHT) == 0
        });
        // Server unharmed.
        let mut client = Client::connect(addr).unwrap();
        client.mttkrp(&x, &factors, 0).unwrap();
        drop(client);
        server.shutdown();
    });
}

/// A peer that pipelines requests and never reads cannot hold the worker
/// that writes its replies: once a write makes no progress for the write
/// timeout, the server shuts that connection down, its permits drain, and
/// the next client is served.
#[test]
fn a_peer_that_stops_reading_is_cut_off_after_the_write_timeout() {
    bounded(WATCHDOG, || {
        const K: u32 = 12;
        let server = NetServer::start(NetConfig {
            server: ServerConfig {
                machine: mttkrp_exec::MachineSpec::shared(1, 1 << 12),
                workers: 1,
                ..ServerConfig::default()
            },
            max_in_flight: K as usize + 1,
            ..NetConfig::default()
        })
        .expect("bind loopback");
        let addr = server.addr();
        let mut s = TcpStream::connect(addr).unwrap();
        hello(&mut s);
        wire::read_frame(&mut s).unwrap();

        // Each reply is a 1024 x 128 matrix, 1 MiB: K of them are far more
        // than the loopback socket buffers hold.
        let dims = [1024usize, 2, 2];
        let x = DenseTensor::random(Shape::new(&dims), 4);
        let factors: Vec<Matrix> = dims.iter().map(|&d| Matrix::random(d, 128, 5)).collect();
        for tag in 1..=K {
            let request = protocol::encode_mttkrp_request(tag, &x, &factors, 0);
            wire::write_frame(&mut s, &request).unwrap();
        }
        wait_until(WATCHDOG, "the pipelined requests to be admitted", || {
            server.metrics().counter_value(metric::REQUESTS) == K as u64
        });
        let stalled = Instant::now();

        // Served once the stalled writes give up (one worker, so not before).
        let mut client = Client::connect(addr).unwrap();
        let small = DenseTensor::random(Shape::new(&[4, 4, 4]), 2);
        let small_factors: Vec<Matrix> = (0..3).map(|k| Matrix::random(4, 2, k)).collect();
        client
            .mttkrp(&small, &small_factors, 0)
            .expect("a second client is served");

        wait_until(WATCHDOG, "the stalled connection to close", || {
            server.metrics().gauge_value(metric::OPEN_CONNECTIONS) == 1
        });
        let closed = stalled.elapsed();
        assert!(
            closed < listener::WRITE_TIMEOUT + Duration::from_secs(5),
            "the stalled connection took {closed:?} to close"
        );
        wait_until(WATCHDOG, "the stalled requests' permits to drain", || {
            server.metrics().gauge_value(metric::IN_FLIGHT) == 0
        });
        drop(s);
        drop(client);
        server.shutdown();
    });
}

/// Zero stuck connections after a storm of short-lived clients: the
/// open-connections gauge returns to zero once every socket is gone.
#[test]
fn open_connections_gauge_returns_to_zero() {
    bounded(WATCHDOG, || {
        let server = capped_server(4, 20);
        let addr = server.addr();
        let x = DenseTensor::random(Shape::new(&[4, 4, 4]), 2);
        let factors: Vec<Matrix> = (0..3).map(|k| Matrix::random(4, 2, k as u64)).collect();
        for _ in 0..12 {
            let mut client = Client::connect(addr).unwrap();
            client.mttkrp(&x, &factors, 0).unwrap();
            drop(client);
        }
        wait_until(WATCHDOG, "every connection to close", || {
            server.metrics().gauge_value(metric::OPEN_CONNECTIONS) == 0
        });
        assert_eq!(server.metrics().counter_value(metric::CONNECTIONS), 12);
        server.shutdown();
    });
}
