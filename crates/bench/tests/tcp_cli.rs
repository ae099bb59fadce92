//! End-to-end tests of `mttkrp_cli dist --transport tcp`: the launcher
//! spawns one real OS process per rank on localhost, and the run must
//! pass the same self-gates the channel transport passes — bitwise output
//! identity against the single-node executor and per-collective schedule
//! word-exactness. The fault path SIGKILLs a rank mid-collective and
//! requires every peer to surface an error within a bounded time.

use std::process::Command;
use std::time::{Duration, Instant};

const CLI: &str = env!("CARGO_BIN_EXE_mttkrp_cli");

/// Runs `mttkrp_cli` with the whitespace-separated arguments of `line`,
/// failing if it has not exited by `deadline`.
fn run_cli(line: &str, deadline: Duration) -> (bool, String, String, Duration) {
    let args: Vec<&str> = line.split_whitespace().collect();
    let start = Instant::now();
    let mut child = Command::new(CLI)
        .args(&args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawning mttkrp_cli");
    loop {
        match child.try_wait().expect("waiting on mttkrp_cli") {
            Some(status) => {
                let out = child.wait_with_output().expect("collecting output");
                return (
                    status.success(),
                    String::from_utf8_lossy(&out.stdout).into_owned(),
                    String::from_utf8_lossy(&out.stderr).into_owned(),
                    start.elapsed(),
                );
            }
            None => {
                assert!(
                    start.elapsed() < deadline,
                    "mttkrp_cli {args:?} still running after {deadline:?} — launcher hang"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// The acceptance criterion: `dist --transport tcp --ranks 4` on loopback
/// exits 0, reporting bitwise identity and a word-exact schedule.
#[test]
fn tcp_four_rank_loopback_passes_both_gates() {
    let (ok, stdout, stderr, _) = run_cli(
        "--dims 16x16x16 --rank 8 --mode 0 dist --ranks 4 --transport tcp",
        Duration::from_secs(120),
    );
    assert!(ok, "self-gate failed\nstdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("transport: tcp sockets"), "{stdout}");
    assert!(stdout.contains("spawning 4 rank process(es)"), "{stdout}");
    assert!(stdout.contains("bit-identical"), "{stdout}");
    for rank in 0..4 {
        assert!(stdout.contains(&format!("rank   {rank}:")), "{stdout}");
    }
    assert!(!stdout.contains("MISMATCH"), "{stdout}");
}

/// An Algorithm 3 configuration (three collectives per rank) over eight
/// real processes stays word-exact.
#[test]
fn tcp_eight_rank_alg3_schedule_is_word_exact() {
    let (ok, stdout, stderr, _) = run_cli(
        "--dims 64x8x8 --rank 8 --mode 0 dist --ranks 8 --transport tcp",
        Duration::from_secs(120),
    );
    assert!(ok, "self-gate failed\nstdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("over 3 collective(s) ok"), "{stdout}");
    assert!(!stdout.contains("MISMATCH"), "{stdout}");
}

/// SIGKILL one rank process while its peers are blocked on it inside a
/// collective: the launcher must exit nonzero within the bounded timeout
/// (no deadlock), naming both the killed rank and the peers' aborts.
#[test]
fn tcp_sigkilled_rank_aborts_every_peer_within_timeout() {
    let (ok, stdout, stderr, elapsed) = run_cli(
        "--dims 16x16x16 --rank 8 --mode 0 dist --ranks 4 --transport tcp --kill-rank 2 --timeout-secs 30",
        Duration::from_secs(90),
    );
    assert!(!ok, "a killed rank must fail the run\nstdout:\n{stdout}");
    assert!(
        elapsed < Duration::from_secs(60),
        "peers took {elapsed:?} to surface the failure — not bounded"
    );
    assert!(
        stderr.contains("signal: 9"),
        "the original failure (SIGKILL) must be reported: {stderr}"
    );
    assert!(
        stderr.contains("connection lost mid-run"),
        "peers must abort on the lost connection: {stderr}"
    );
}

/// The channel transport rejects the tcp-only fault-injection flag
/// instead of silently ignoring it.
#[test]
fn kill_rank_flag_requires_the_tcp_launcher() {
    let (ok, _, stderr, _) = run_cli(
        "--dims 16x16x16 --rank 8 --mode 0 dist --ranks 4 --kill-rank 1",
        Duration::from_secs(60),
    );
    assert!(!ok);
    assert!(stderr.contains("tcp-launcher"), "{stderr}");
}
