//! Driving a `mttkrp_cli listen` child: what the front door's end-to-end
//! tests (`listen_cli.rs`, `ops_e2e.rs`) share.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Spawns `mttkrp_cli --rank 4 listen --bind 127.0.0.1:0` and `extra` with
/// stdin and stdout piped, and parses the bound address from the first
/// stdout line. The child's stdin stays open: dropping it is the drain
/// signal.
pub fn spawn_listener<S: AsRef<std::ffi::OsStr>>(extra: &[S]) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mttkrp_cli"))
        .args(["--rank", "4", "listen", "--bind", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning mttkrp_cli listen");
    let mut first = String::new();
    let stdout = child.stdout.as_mut().expect("piped stdout");
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("reading the listener's first line");
    let addr = first.trim().strip_prefix("listening on ");
    let addr = addr.unwrap_or_else(|| panic!("unexpected first line: {first:?}"));
    (child, addr.parse().expect("parsing the bound address"))
}

/// Closes the child's stdin (EOF drains the server) and requires a clean
/// exit — which is also when it writes its `--trace` file — within
/// `deadline`.
pub fn drain_and_reap(mut child: Child, deadline: Duration) {
    drop(child.stdin.take());
    let start = Instant::now();
    while start.elapsed() < deadline {
        if let Some(status) = child.try_wait().expect("waiting on the listener") {
            assert!(status.success(), "listener exited {status}");
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("listener still running {deadline:?} after stdin EOF — drain hang");
}
