//! The fault tests' watchdog (`net_fault.rs`, `server.rs`'s unit tests,
//! and `mttkrp-dist`'s `fault.rs`).

use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

/// Runs `f` on its own thread and panics if it has not finished within
/// `watchdog` — turning a would-be deadlock into a test failure. A panic
/// in `f` is rethrown as it was, not masked as a hang.
pub fn bounded<O: Send + 'static>(watchdog: Duration, f: impl FnOnce() -> O + Send + 'static) -> O {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(watchdog) {
        Ok(out) => {
            worker.join().expect("worker already delivered its result");
            out
        }
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("worker finished without sending its result"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("fault scenario did not resolve within {watchdog:?} — deadlock?")
        }
    }
}
