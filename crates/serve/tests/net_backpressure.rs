//! Bounded-admission tests: at the in-flight cap the front door sheds
//! with retry-after frames — deterministically, observably, and
//! recoverably.
//!
//! The cap is filled with factorizations that *cannot* converge
//! (`tol = 0.0` demands a strictly negative fit delta), held open until
//! the test cancels them through the streaming channel — so "the server
//! is busy" is a controlled state, not a race.

use mttkrp_serve::net::listener::metric;
use mttkrp_serve::net::protocol::FactorizeSpec;
use mttkrp_serve::{Client, ClientError, StreamControl};
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[path = "support/net.rs"]
mod net;
use net::{capped_server, endless_spec, wait_until};

const WATCHDOG: Duration = Duration::from_secs(60);

/// Spawns one client running an endless streaming factorization. It
/// cancels as soon as `release` flips, and reports back once admitted
/// (first sweep frame seen).
fn hold_slot(
    addr: std::net::SocketAddr,
    release: Arc<AtomicBool>,
) -> (std::thread::JoinHandle<()>, Arc<AtomicBool>) {
    let admitted = Arc::new(AtomicBool::new(false));
    let seen = Arc::clone(&admitted);
    let handle = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let x = DenseTensor::random(Shape::new(&[6, 6, 6]), 11);
        let run = client
            .factorize_streaming(&x, &endless_spec(3), |_| {
                seen.store(true, Ordering::Release);
                if release.load(Ordering::Acquire) {
                    StreamControl::Cancel
                } else {
                    StreamControl::Continue
                }
            })
            .expect("held run must still return its partial model");
        assert!(run.cancelled, "an endless run only ends by cancel");
        assert!(!run.converged);
    });
    (handle, admitted)
}

/// Cap K, K slots held, request K+1 sheds with exactly one retry-after —
/// an error the client sees immediately, never a hang. After the slots
/// drain, the same request succeeds.
#[test]
fn request_k_plus_1_gets_retry_after_not_a_hang() {
    let cap = 2;
    let server = capped_server(cap, 25);
    let release = Arc::new(AtomicBool::new(false));

    let holders: Vec<_> = (0..cap)
        .map(|_| hold_slot(server.addr(), Arc::clone(&release)))
        .collect();
    for (_, admitted) in &holders {
        let admitted = Arc::clone(admitted);
        wait_until(WATCHDOG, "slot holders to be admitted", move || {
            admitted.load(Ordering::Acquire)
        });
    }
    assert_eq!(server.metrics().gauge_value(metric::IN_FLIGHT), cap as i64);

    // The K+1th request: shed, with the configured advisory delay.
    let mut extra = Client::connect(server.addr()).expect("connections are not capped");
    let x = DenseTensor::random(Shape::new(&[4, 4, 4]), 5);
    let factors: Vec<Matrix> = (0..3).map(|k| Matrix::random(4, 2, k as u64)).collect();
    let sheds_before = server.metrics().counter_value(metric::SHED);
    match extra.mttkrp(&x, &factors, 0) {
        Err(ClientError::RetryAfter(after)) => {
            assert_eq!(after, Duration::from_millis(25));
        }
        other => panic!("expected a retry-after shed, got {other:?}"),
    }
    assert_eq!(
        server.metrics().counter_value(metric::SHED),
        sheds_before + 1,
        "exactly one shed for exactly one over-cap request"
    );

    // Drain the held slots; the gauge must return to zero.
    release.store(true, Ordering::Release);
    for (h, _) in holders {
        h.join().expect("slot holder panicked");
    }
    wait_until(WATCHDOG, "the in-flight gauge to return to zero", || {
        server.metrics().gauge_value(metric::IN_FLIGHT) == 0
    });

    // The same connection, the same request: admitted this time.
    let reply = extra.mttkrp(&x, &factors, 0).expect("capacity freed");
    assert_eq!(reply.output.rows(), 4);
    drop(extra);
    server.shutdown();
}

/// The shed path costs a frame, not a connection: a shed client's socket
/// stays usable, and sheds are counted per request, not per connection.
#[test]
fn a_shed_request_leaves_the_connection_usable() {
    let server = capped_server(1, 25);
    let release = Arc::new(AtomicBool::new(false));
    let (holder, admitted) = hold_slot(server.addr(), Arc::clone(&release));
    wait_until(WATCHDOG, "the slot holder to be admitted", || {
        admitted.load(Ordering::Acquire)
    });

    let mut client = Client::connect(server.addr()).unwrap();
    let x = DenseTensor::random(Shape::new(&[4, 4, 4]), 5);
    let factors: Vec<Matrix> = (0..3).map(|k| Matrix::random(4, 2, k as u64)).collect();
    for _ in 0..3 {
        assert!(matches!(
            client.mttkrp(&x, &factors, 0),
            Err(ClientError::RetryAfter(_))
        ));
    }
    assert_eq!(server.metrics().counter_value(metric::SHED), 3);

    release.store(true, Ordering::Release);
    holder.join().unwrap();
    wait_until(WATCHDOG, "the slot to drain", || {
        server.metrics().gauge_value(metric::IN_FLIGHT) == 0
    });
    client
        .mttkrp(&x, &factors, 0)
        .expect("the shed client recovers on its own socket");
    drop(client);
    server.shutdown();
}

/// Factorize requests are shed by the same gate as MTTKRPs.
#[test]
fn factorize_requests_are_shed_by_the_same_cap() {
    let server = capped_server(1, 25);
    let release = Arc::new(AtomicBool::new(false));
    let (holder, admitted) = hold_slot(server.addr(), Arc::clone(&release));
    wait_until(WATCHDOG, "the slot holder to be admitted", || {
        admitted.load(Ordering::Acquire)
    });

    let mut client = Client::connect(server.addr()).unwrap();
    let x = DenseTensor::random(Shape::new(&[4, 4, 4]), 5);
    let spec = FactorizeSpec {
        rank: 2,
        max_sweeps: 3,
        tol: 1e-8,
        seed: 0,
        ridge: 1e-9,
    };
    assert!(matches!(
        client.factorize(&x, &spec),
        Err(ClientError::RetryAfter(_))
    ));

    release.store(true, Ordering::Release);
    holder.join().unwrap();
    wait_until(WATCHDOG, "the slot to drain", || {
        server.metrics().gauge_value(metric::IN_FLIGHT) == 0
    });
    let run = client.factorize(&x, &spec).expect("capacity freed");
    assert_eq!(run.sweeps, 3);
    drop(client);
    server.shutdown();
}

/// Admission accounting is exact under concurrency: N clients racing for
/// K slots produce exactly N total outcomes, every admitted request is
/// answered, and `admitted + shed == attempted`.
#[test]
fn admissions_plus_sheds_account_for_every_request() {
    let cap = 3;
    let server = capped_server(cap, 25);
    let n_clients = 8;
    let attempts_per_client = 6;
    let addr = server.addr();

    let workers: Vec<_> = (0..n_clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let x = DenseTensor::random(Shape::new(&[6, 5, 4]), c as u64);
                let factors: Vec<Matrix> = [6, 5, 4]
                    .iter()
                    .enumerate()
                    .map(|(k, &d)| Matrix::random(d, 3, (c * 10 + k) as u64))
                    .collect();
                let mut served = 0u64;
                let mut shed = 0u64;
                for _ in 0..attempts_per_client {
                    match client.mttkrp(&x, &factors, 0) {
                        Ok(_) => served += 1,
                        Err(ClientError::RetryAfter(_)) => shed += 1,
                        Err(e) => panic!("only success or shed is acceptable: {e}"),
                    }
                }
                (served, shed)
            })
        })
        .collect();

    let mut served = 0u64;
    let mut shed = 0u64;
    for w in workers {
        let (s, r) = w.join().expect("client thread panicked");
        served += s;
        shed += r;
    }
    assert_eq!(served + shed, (n_clients * attempts_per_client) as u64);
    assert_eq!(server.metrics().counter_value(metric::REQUESTS), served);
    assert_eq!(server.metrics().counter_value(metric::SHED), shed);
    // The reply is written *before* the permit drops, so a client can
    // observe its answer a beat before the gauge decrements — wait for
    // the slot to settle rather than racing it.
    wait_until(WATCHDOG, "in-flight to settle", || {
        server.metrics().gauge_value(metric::IN_FLIGHT) == 0
    });
    let stats = server.shutdown();
    assert_eq!(stats.requests_served, served);
}
