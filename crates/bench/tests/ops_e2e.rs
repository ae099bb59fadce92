//! The whole ops plane, end to end, across six OS processes: a traced
//! client sends a factorization to a `listen` front door running with
//! `--dist-exec proc`, so every MTTKRP of every sweep launches four real
//! rank processes; each process writes its own `--trace` JSONL, and
//! `report --merge --gate` stitches them into ONE tree under ONE trace id
//! and replays the drift gate over the merged capture.
//!
//! This is the acceptance test for cross-process trace propagation: the
//! client's root `request` span must end up as the ancestor of the
//! server's worker span AND of every rank process's `rank` span.

use std::ffi::OsString;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const CLI: &str = env!("CARGO_BIN_EXE_mttkrp_cli");
const DEADLINE: Duration = Duration::from_secs(120);
const RANKS: usize = 4;

#[path = "support/listener.rs"]
mod support;
use support::{drain_and_reap, spawn_listener};

/// A scratch directory unique to this test process AND test fn (the
/// harness runs test fns concurrently in one process).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mttkrp_ops_e2e_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("ranks")).expect("creating the scratch dir");
    dir
}

/// Runs `mttkrp_cli` on the whitespace-separated arguments of `line` and
/// then `paths`, stdin closed: whether it succeeded, its stdout and stderr.
fn cli(line: &str, paths: &[PathBuf]) -> (bool, String, String) {
    let mut cli = Command::new(CLI);
    cli.args(line.split_whitespace())
        .args(paths)
        .stdin(Stdio::null());
    let out = cli.output().expect("running mttkrp_cli");
    let text = |bytes: Vec<u8>| String::from_utf8_lossy(&bytes).into_owned();
    (out.status.success(), text(out.stdout), text(out.stderr))
}

/// Spawns the traced listener with one real OS process per rank behind
/// every factorization (see [`support::spawn_listener`]).
fn spawn_traced_listener(dir: &Path) -> (Child, SocketAddr) {
    let (ranks, server) = (dir.join("ranks"), dir.join("server.jsonl"));
    let extra = ["--dist-exec", "proc", "--ranks", &RANKS.to_string()].map(OsString::from);
    let paths =
        [("--rank-trace-dir", ranks), ("--trace", server)].map(|(f, p)| [f.into(), p.into()]);
    spawn_listener(&[&extra[..], paths.as_flattened()].concat())
}

#[test]
fn traced_factorization_merges_into_one_cross_process_tree() {
    let dir = scratch("merge");
    let (listener, addr) = spawn_traced_listener(&dir);

    // The traced client, as its own OS process: `--connect` routes the
    // factorization over the socket with this process's trace context on
    // the request frame. 16x16x16 shards evenly over 4 ranks.
    let line = format!("--dims 16x16x16 --rank 4 cp-als --connect {addr} --sweeps 2 --trace");
    let (ok, stdout, stderr) = cli(&line, &[dir.join("client.jsonl")]);
    assert!(
        ok,
        "traced client failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("[remote @"),
        "client did not report a remote factorization: {stdout}"
    );

    drain_and_reap(listener, DEADLINE);

    // Every per-process capture must exist: client, server, and one file
    // per rank (successive launches reuse the paths; the last launch of
    // the request wins, still under the same trace id).
    let mut files = vec![dir.join("client.jsonl"), dir.join("server.jsonl")];
    for me in 0..RANKS {
        files.push(dir.join("ranks").join(format!("rank{me}.jsonl")));
    }
    let texts: Vec<String> = files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f)
                .unwrap_or_else(|e| panic!("reading {}: {e}", f.display()));
            assert!(!text.trim().is_empty(), "{} is empty", f.display());
            text
        })
        .collect();

    // The merged capture: the client's trace id is THE trace id — every
    // rank process adopted it wholesale (their metas carry it plus the
    // remote anchor), and the server's request span joined it span-level
    // via its `remote_trace` field (the server capture keeps its own
    // process id, since one server serves many clients' traces).
    let merged = mttkrp_obs::merge_traces(&texts).expect("merging the six captures");
    assert_eq!(merged.segments.len(), files.len());
    let client_trace = merged.segments[0].trace.clone();
    assert_eq!(client_trace.len(), 32, "client capture carries a trace id");
    for seg in &merged.segments[2..] {
        assert_eq!(
            seg.trace, client_trace,
            "every rank process adopted the client's trace id"
        );
    }
    assert!(
        merged.spans.iter().any(|s| s.name == "request"
            && s.fields.iter().any(|(k, v)| k == "remote_trace"
                && matches!(v, mttkrp_obs::FieldValue::Str(t) if *t == client_trace))),
        "the server's request span adopted the client's trace id"
    );

    let parent_of: std::collections::HashMap<u64, Option<u64>> =
        merged.spans.iter().map(|s| (s.id, s.parent)).collect();
    let root_of = |mut id: u64| -> u64 {
        while let Some(Some(p)) = parent_of.get(&id) {
            id = *p;
        }
        id
    };
    let client_root = merged
        .spans
        .iter()
        .find(|s| s.parent.is_none() && s.name == "request")
        .expect("the client's root request span survives the merge");
    let rank_spans: Vec<_> = merged.spans.iter().filter(|s| s.name == "rank").collect();
    assert_eq!(
        rank_spans.len(),
        RANKS,
        "one rank span per rank process (last launch per file)"
    );
    for span in rank_spans {
        assert_eq!(
            root_of(span.id),
            client_root.id,
            "rank span {} is not under the client's root request span",
            span.id
        );
        assert!(
            span.fields.iter().any(|(k, _)| k == "world_rank"),
            "rank span carries its world_rank field"
        );
    }

    // And the CLI-side replay: `report --merge ... --gate` over the same
    // files must pass the drift gate (modeled-vs-measured over the merged
    // capture, collectives included).
    let (ok, stdout, stderr) = cli("report --merge --gate", &files);
    assert!(
        ok,
        "report --merge --gate failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("merged 6 file(s)"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The ops frames against a real child process: `stats` scrapes a live
/// listener (human and `--json`) without ever being admitted, and the
/// flight recorder answers over the wire.
#[test]
fn stats_cli_scrapes_a_live_listener() {
    let dir = scratch("stats");
    let (listener, addr) = spawn_traced_listener(&dir);

    let (ok, stdout, _) = cli(&format!("stats {addr}"), &[]);
    assert!(ok, "stats failed: {stdout}");
    assert!(stdout.contains("up "), "no health line: {stdout}");

    let (ok, stdout, _) = cli(&format!("stats {addr} --json"), &[]);
    assert!(ok, "stats --json failed: {stdout}");
    assert!(stdout.contains("\"health\":{"), "{stdout}");
    assert!(stdout.contains("\"uptime_ms\":"), "{stdout}");
    assert!(stdout.contains("\"metrics\":["), "{stdout}");
    assert!(
        stdout.contains("\"serve.net.scrapes\""),
        "the scrape itself must be counted: {stdout}"
    );

    drain_and_reap(listener, DEADLINE);
    let _ = std::fs::remove_dir_all(&dir);
}
