//! Socket soak: many concurrent clients hammer one front door with mixed
//! MTTKRP and Factorize shapes, and every byte that comes back must be
//! **bit-identical** to an in-process call on the same engine.
//!
//! Also asserted after the storm: the plan cache was actually shared
//! (hits across clients repeating the same shapes, and not one miss after
//! the warm-up planned every key), no connection is stuck
//! (open-connections, in-flight and kept-bytes gauges return to zero), and
//! the drain answers everything (`stats.requests_served` accounts for every
//! admitted request).
//!
//! Sized for CI by default; `NET_SOAK_CLIENTS` scales it up to hundreds of
//! clients.
//!
//! The kept tensor is sound, too: only the very tensor last shipped, unwritten,
//! is not shipped again, and every reply matches its *current* contents.

use mttkrp_als::AlsConfig;
use mttkrp_dist::transport::wire;
use mttkrp_serve::net::listener::metric;
use mttkrp_serve::net::protocol::{self, FactorizeSpec};
use mttkrp_serve::{
    Client, ClientError, FactorizeRequest, MttkrpRequest, NetConfig, NetServer, ServerConfig,
    StreamControl,
};
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WATCHDOG: Duration = Duration::from_secs(60);

/// The mixed shape pool. Every client works the whole pool, so every
/// shape is requested by every client — maximum cache contention.
const POOL: &[(&[usize], usize)] = &[
    (&[6, 7, 8], 3),
    (&[5, 5, 5], 2),
    (&[9, 4, 3], 4),
    (&[4, 6, 5, 3], 2),
];

fn clients() -> usize {
    std::env::var("NET_SOAK_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

fn operands(pool_idx: usize) -> (Arc<DenseTensor>, Arc<Vec<Matrix>>) {
    let (dims, rank) = POOL[pool_idx];
    let x = Arc::new(DenseTensor::random(Shape::new(dims), pool_idx as u64 + 1));
    let factors = Arc::new(
        dims.iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, rank, (pool_idx * 10 + k) as u64))
            .collect::<Vec<_>>(),
    );
    (x, factors)
}

fn spec(pool_idx: usize) -> FactorizeSpec {
    let (_, rank) = POOL[pool_idx];
    FactorizeSpec::of(
        &AlsConfig::new(rank)
            .with_sweeps(4)
            .with_tol(1e-12) // effectively "run all 4 sweeps"
            .with_seed(pool_idx as u64),
    )
}

fn bits(a: &[f64]) -> Vec<u64> {
    a.iter().map(|w| w.to_bits()).collect()
}

/// Retries through shed responses; anything else is a failure.
fn with_retries<T>(what: &str, mut attempt: impl FnMut() -> Result<T, ClientError>) -> T {
    for _ in 0..200 {
        match attempt() {
            Ok(v) => return v,
            Err(ClientError::RetryAfter(after)) => std::thread::sleep(after),
            Err(e) => panic!("{what} failed: {e}"),
        }
    }
    panic!("{what}: shed 200 times in a row — the cap never drained");
}

#[test]
fn soak_bit_identical_under_concurrency() {
    let machine = mttkrp_exec::MachineSpec::shared(2, 1 << 12);
    let server = NetServer::start(NetConfig {
        server: ServerConfig {
            machine: machine.clone(),
            workers: 4,
            ..ServerConfig::default()
        },
        max_in_flight: 8, // small enough that the storm actually sheds
        retry_after_ms: 5,
        ..NetConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();

    // Expected bytes, computed in-process on the SAME engine: one MTTKRP
    // output per (shape, mode) and one fitted model per shape.
    struct ExpectedModel {
        weights: Vec<u64>,
        factors: Vec<Vec<u64>>,
        sweeps: usize,
        fit: u64,
    }
    let mut expected_mttkrp: Vec<Vec<Vec<u64>>> = Vec::new();
    let mut expected_model: Vec<ExpectedModel> = Vec::new();
    for (pool_idx, (dims, _)) in POOL.iter().enumerate() {
        let (x, factors) = operands(pool_idx);
        let per_mode = (0..dims.len())
            .map(|mode| {
                let resp = server.server().call(MttkrpRequest::new(
                    Arc::clone(&x),
                    Arc::clone(&factors),
                    mode,
                ));
                bits(resp.report.output.data())
            })
            .collect();
        expected_mttkrp.push(per_mode);
        let config = spec(pool_idx).into_config(&machine);
        let run = server
            .server()
            .call_factorize(FactorizeRequest::new(Arc::clone(&x), config))
            .run;
        expected_model.push(ExpectedModel {
            weights: bits(&run.model.weights),
            factors: run.model.factors.iter().map(|f| bits(f.data())).collect(),
            sweeps: run.sweeps(),
            fit: run.fit().to_bits(),
        });
    }
    let expected_mttkrp = Arc::new(expected_mttkrp);
    let expected_model = Arc::new(expected_model);
    // The warm-up above planned every (shape, mode) key the storm will ask
    // for, so from here on the plan cache may only hit.
    let warmup_misses = server.stats().cache.misses;

    let workers: Vec<_> = (0..clients())
        .map(|c| {
            let expected_mttkrp = Arc::clone(&expected_mttkrp);
            let expected_model = Arc::clone(&expected_model);
            std::thread::spawn(move || {
                let mut client = with_retries("connect", || Client::connect(addr));
                let mut served = 0u64;
                for round in 0..2 {
                    for pool_idx in 0..POOL.len() {
                        let (x, factors) = operands(pool_idx);
                        // Every mode of every shape, twice.
                        for mode in 0..POOL[pool_idx].0.len() {
                            let remote =
                                with_retries("mttkrp", || client.mttkrp(&x, &factors, mode));
                            assert_eq!(
                                bits(remote.output.data()),
                                expected_mttkrp[pool_idx][mode],
                                "client {c}: socket MTTKRP diverged from in-process \
                                 (shape {pool_idx}, mode {mode})"
                            );
                            served += 1;
                        }
                        // One factorization per shape per round; odd rounds
                        // stream and check the sweep feed's bookkeeping.
                        let want = &expected_model[pool_idx];
                        let run = if round % 2 == 0 {
                            with_retries("factorize", || client.factorize(&x, &spec(pool_idx)))
                        } else {
                            let mut updates = 0usize;
                            let run = with_retries("streaming factorize", || {
                                updates = 0;
                                client.factorize_streaming(&x, &spec(pool_idx), |u| {
                                    updates += 1;
                                    assert_eq!(u.sweep, updates, "sweeps stream in order");
                                    StreamControl::Continue
                                })
                            });
                            assert_eq!(updates, run.sweeps, "one frame per sweep");
                            run
                        };
                        assert_eq!(run.sweeps, want.sweeps);
                        assert_eq!(run.fit.to_bits(), want.fit);
                        assert_eq!(bits(&run.model.weights), want.weights);
                        for (got, exp) in run.model.factors.iter().zip(&want.factors) {
                            assert_eq!(
                                bits(got.data()),
                                *exp,
                                "client {c}: socket factorize diverged from in-process \
                                 (shape {pool_idx})"
                            );
                        }
                    }
                }
                served
            })
        })
        .collect();

    let mut socket_mttkrps = 0u64;
    for w in workers {
        socket_mttkrps += w.join().expect("soak client panicked");
    }

    // Zero stuck connections, zero stuck slots, and no kept tensor outlives
    // its connection.
    let start = Instant::now();
    while server.metrics().gauge_value(metric::OPEN_CONNECTIONS) != 0
        || server.metrics().gauge_value(metric::IN_FLIGHT) != 0
        || server.metrics().gauge_value(metric::KEPT_BYTES) != 0
    {
        assert!(
            start.elapsed() < WATCHDOG,
            "connections stuck after the storm"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let stats = server.shutdown();
    // Every admitted request was answered: the in-process warmup plus all
    // socket MTTKRPs...
    let warmup_mttkrps: u64 = POOL.iter().map(|(dims, _)| dims.len() as u64).sum();
    assert_eq!(stats.requests_served, warmup_mttkrps + socket_mttkrps);
    assert_eq!(stats.requests_submitted, stats.requests_served);
    // ...and the shapes repeated across clients, so the shared plan cache
    // carried real weight.
    assert!(
        stats.cache.hits > stats.cache.misses,
        "a soak of repeated shapes must be cache-dominated: {:?}",
        stats.cache
    );
    assert_eq!(
        stats.cache.misses, warmup_misses,
        "the storm missed a plan cache the warm-up had filled"
    );
}

/// Reads one counter out of a wire STATS snapshot by its dotted name.
fn counter(snapshot: &[mttkrp_obs::MetricSnapshot], name: &str) -> u64 {
    snapshot
        .iter()
        .find(|m| m.name == name)
        .map(|m| match &m.value {
            mttkrp_obs::MetricValue::Counter(v) => *v,
            other => panic!("{name} is not a counter: {other:?}"),
        })
        .unwrap_or(0)
}

/// The ops plane under load: a scraper hammers `STATS` while a storm of
/// request clients sheds against a tiny admission cap. At *every* scrape:
///
/// 1. every counter is monotone versus the previous scrape (the wire
///    snapshot never goes backwards), and
/// 2. `admissions + sheds == attempts` holds exactly — the listener
///    snapshots under the same lock it bumps the admission counters
///    under, so a scrape can never observe a half-applied decision.
///
/// At drain, the last wire snapshot must agree with the in-process
/// `stats()` accessor, and a flight scrape must return the flight ring
/// (capture is off — the recorder runs anyway).
#[test]
fn scrapes_under_load_are_consistent() {
    let server = NetServer::start(NetConfig {
        server: ServerConfig {
            machine: mttkrp_exec::MachineSpec::shared(1, 1 << 12),
            workers: 2,
            ..ServerConfig::default()
        },
        max_in_flight: 2, // tiny: the storm must shed
        retry_after_ms: 1,
        ..NetConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let storm: Vec<_> = (0..6)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let (x, factors) = operands(0);
                let mut client = with_retries("connect", || Client::connect(addr));
                let mut served = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    with_retries("mttkrp", || client.mttkrp(&x, &factors, 0));
                    served += 1;
                }
                served
            })
        })
        .collect();

    // The scraper: a dedicated connection, scraping as fast as it can
    // while the storm runs. Scrapes are answered inline by the reader —
    // with the cap at 2 and six clients shedding constantly, a scrape
    // that went through admission would shed too, and this test would
    // livelock instead of passing.
    let mut scraper = with_retries("connect scraper", || Client::connect(addr));
    let mut scrapes = 0u64;
    let mut last: Option<Vec<(String, u64)>> = None;
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut final_snapshot = Vec::new();
    while Instant::now() < deadline {
        let snapshot = scraper.stats().expect("scrape under load");
        let attempts = counter(&snapshot, metric::REQUEST_ATTEMPTS);
        let admitted = counter(&snapshot, metric::REQUESTS);
        let shed = counter(&snapshot, metric::SHED);
        assert_eq!(
            admitted + shed,
            attempts,
            "scrape {scrapes}: the admission identity must hold at every scrape point"
        );
        let counters: Vec<(String, u64)> = snapshot
            .iter()
            .filter_map(|m| match &m.value {
                mttkrp_obs::MetricValue::Counter(v) => Some((m.name.clone(), *v)),
                _ => None,
            })
            .collect();
        if let Some(last) = &last {
            for (name, value) in last {
                let now = counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or(0);
                assert!(
                    now >= *value,
                    "scrape {scrapes}: counter {name} went backwards ({value} -> {now})"
                );
            }
        }
        last = Some(counters);
        scrapes += 1;
        final_snapshot = snapshot;
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut served = 0u64;
    for w in storm {
        served += w.join().expect("storm client panicked");
    }
    assert!(served > 0, "the storm must actually serve requests");
    assert!(scrapes >= 10, "got only {scrapes} scrapes in 3 s");
    assert!(
        counter(&final_snapshot, metric::SHED) > 0,
        "a 6-client storm against a cap of 2 must shed"
    );

    // Drain: the wire snapshot and the in-process accessor must agree.
    // One more scrape after the storm (nothing in flight), then stats().
    let snapshot = scraper.stats().expect("scrape at drain");
    let stats = server.stats();
    assert_eq!(counter(&snapshot, metric::REQUESTS), served);
    assert_eq!(
        counter(&snapshot, metric::REQUEST_ATTEMPTS),
        counter(&snapshot, metric::REQUESTS) + counter(&snapshot, metric::SHED)
    );
    assert_eq!(stats.requests_served, served);
    assert_eq!(stats.scrapes, counter(&snapshot, metric::SCRAPES));
    assert_eq!(stats.scrapes, scrapes + 1);
    // The snapshot was taken before its own response went out, so the
    // live byte tallies are at least the scraped ones — and nonzero.
    let (bytes_in, bytes_out) = (
        counter(&snapshot, metric::BYTES_IN),
        counter(&snapshot, metric::BYTES_OUT),
    );
    assert!(bytes_in > 0 && bytes_out > 0);
    assert!(stats.bytes_in >= bytes_in && stats.bytes_out >= bytes_out);

    // The flight recorder answers over the wire with capture off: the
    // server just closed thousands of spans (noop spans don't ring, but
    // request worker spans do), and the ring holds the most recent ones.
    let dump = scraper.trace_dump().expect("trace dump at drain");
    assert!(
        !dump.is_empty(),
        "the flight ring must retain span closes with capture off"
    );
    let mut seqs: Vec<u64> = dump.iter().map(|r| r.seq).collect();
    let sorted = {
        let mut s = seqs.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(seqs, sorted, "flight dump is oldest-to-newest");
    seqs.dedup();
    assert_eq!(seqs.len(), dump.len(), "flight seq numbers are unique");

    // Every served request is filed under its shape's labeled latency family.
    assert!(
        snapshot
            .iter()
            .any(|m| m.name.starts_with("serve.exec_us.shape{")
                && matches!(&m.value, mttkrp_obs::MetricValue::Histogram(h) if h.count > 0)),
        "the STATS scrape never showed a per-shape exec latency family"
    );

    drop(scraper);
    server.shutdown();
}

/// One socket round trip, checked bit for bit against an in-process call on
/// what `x` holds now. Says whether the tensor travelled: `serve.net.bytes_in`
/// grew by a whole request frame, not by a factors-only one.
fn trip(
    net: &NetServer,
    c: &mut Client,
    x: &DenseTensor,
    a: &[Matrix],
    mode: usize,
) -> Result<bool, ClientError> {
    let before = net.metrics().counter_value(metric::BYTES_IN);
    let remote = c.mttkrp(x, a, mode)?;
    let read = (net.metrics().counter_value(metric::BYTES_IN) - before) as usize;
    let request = MttkrpRequest::new(Arc::new(x.clone()), Arc::new(a.to_vec()), mode);
    let direct = net.server().call(request).report.output;
    assert_eq!(
        bits(remote.output.data()),
        bits(direct.data()),
        "mode {mode}"
    );
    let whole = wire::frame_wire_bytes(&protocol::encode_mttkrp_request(1, x, a, mode));
    let factors_only = wire::frame_wire_bytes(&protocol::mttkrp_message(None, a, mode).frame(1));
    assert!(read == whole || read == factors_only, "read {read} bytes");
    Ok(read == whole)
}

/// The kept tensor, end to end: every mode of one tensor reads one full frame,
/// then factor-only frames; and whatever shares its contents but is not that
/// tensor, unwritten, travels whole — the tensor written since, a reshaped
/// view of its buffer, an equal tensor built apart, any tensor after an error.
#[test]
fn only_the_kept_tensor_itself_stays_put() {
    let server = ServerConfig {
        machine: mttkrp_exec::MachineSpec::shared(1, 1 << 12),
        workers: 1,
        ..ServerConfig::default()
    };
    let config = NetConfig {
        server,
        ..NetConfig::default()
    };
    let net = NetServer::start(config).expect("bind loopback");
    let mut client = Client::connect(net.addr()).unwrap();
    let mut shipped = |x: &DenseTensor, a: &[Matrix], mode| trip(&net, &mut client, x, a, mode);
    let (x, a) = operands(0);
    let modes: Vec<bool> = (0..3).map(|mode| shipped(&x, &a, mode).unwrap()).collect();
    assert_eq!(modes, [true, false, false]);
    assert_eq!(net.metrics().counter_value(metric::KEPT_HITS), 2);
    assert_eq!(net.metrics().gauge_value(metric::KEPT_BYTES), 8 * 6 * 7 * 8);

    let mut x = DenseTensor::clone(&x);
    x.data_mut()[0] += 1.0;
    assert!(shipped(&x, &a, 0).unwrap());
    assert!(!shipped(&x, &a, 1).unwrap());
    let view = x.reshaped(Shape::new(&[42, 8]));
    let b = [Matrix::random(42, 3, 1), Matrix::random(8, 3, 2)];
    assert!(shipped(&view, &b, 0).unwrap());
    assert!(shipped(&x, &a, 1).unwrap());
    let twin = DenseTensor::from_vec(x.shape().clone(), x.data().to_vec());
    assert!(shipped(&twin, &a, 2).unwrap());
    assert!(matches!(shipped(&twin, &a, 3), Err(ClientError::Server(_))));
    assert!(shipped(&twin, &a, 1).unwrap());
    drop(client);
    net.shutdown();
}
