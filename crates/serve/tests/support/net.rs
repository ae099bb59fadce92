//! Servers and runs the front door's fault and backpressure tests share.

use mttkrp_serve::net::protocol::FactorizeSpec;
use mttkrp_serve::{NetConfig, NetServer, ServerConfig};
use std::time::{Duration, Instant};

/// A loopback front door admitting `cap` requests at once (on as many
/// workers) and asking shed clients to retry after `retry_after_ms`.
pub fn capped_server(cap: usize, retry_after_ms: u64) -> NetServer {
    let machine = mttkrp_exec::MachineSpec::shared(1, 1 << 12);
    let server = ServerConfig {
        machine,
        workers: cap.max(1),
        ..ServerConfig::default()
    };
    let config = NetConfig {
        server,
        max_in_flight: cap,
        retry_after_ms,
        ..NetConfig::default()
    };
    NetServer::start(config).expect("bind loopback")
}

/// A factorization that can never converge: `tol = 0.0` demands a
/// strictly negative fit delta, so the run ends only by cancel.
pub fn endless_spec(seed: u64) -> FactorizeSpec {
    FactorizeSpec {
        rank: 2,
        max_sweeps: 1_000_000,
        tol: 0.0,
        seed,
        ridge: 1e-9,
    }
}

/// Polls `cond` until it holds, failing after `watchdog`.
pub fn wait_until(watchdog: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < watchdog, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}
