//! End-to-end tests of the observability surface: `--trace` on a live
//! `mttkrp_cli` run produces one schema-valid JSONL stream with the whole
//! span hierarchy under a single root, the drift gate holds, and `report`
//! replays the file.

use std::process::Command;

const CLI: &str = env!("CARGO_BIN_EXE_mttkrp_cli");

/// Runs `mttkrp_cli` with the whitespace-separated arguments of `line`
/// and then `trace`'s path.
fn run_cli(line: &str, trace: &std::path::Path) -> (bool, String, String) {
    let args = line.split_whitespace().map(std::ffi::OsStr::new);
    let out = Command::new(CLI)
        .args(args)
        .arg(trace)
        .output()
        .expect("running mttkrp_cli");
    let text = |bytes: Vec<u8>| String::from_utf8_lossy(&bytes).into_owned();
    (out.status.success(), text(out.stdout), text(out.stderr))
}

fn temp_trace(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mttkrp_obs_cli_{tag}_{}.jsonl", std::process::id()))
}

/// The acceptance criterion end to end: one traced
/// `cp-als --backend dist-tcp` run yields a single JSONL stream carrying
/// planner, kernel, collective, and sweep spans under one root `request`
/// span — with every collective's modeled words equal to the words the TCP
/// sockets actually moved (the in-run drift gate would otherwise have
/// failed the exit code).
#[test]
fn traced_cp_als_dist_tcp_yields_one_valid_stream_under_one_root() {
    let path = temp_trace("cpals");
    let (ok, stdout, stderr) = run_cli(
        "--dims 16x12x8 --rank 4 cp-als --backend dist-tcp --ranks 4 --sweeps 3 --trace",
        &path,
    );
    assert!(
        ok,
        "traced run failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("drift gate") && stdout.contains("OK"),
        "expected an in-run drift verdict:\n{stdout}"
    );

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let lines = mttkrp_obs::validate(&text).expect("every line matches the event schema");
    assert!(lines > 10, "expected a real stream, got {lines} line(s)");

    let trace = mttkrp_obs::parse_trace(&text).expect("trace parses");
    let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    assert_eq!(roots[0].name, "request");
    for name in [
        "planner",
        "kernel",
        "collective",
        "factorize",
        "sweep",
        "mode",
    ] {
        assert!(
            trace.spans.iter().any(|s| s.name == name),
            "missing {name} spans in the stream"
        );
    }

    // The drift pairs in the file re-verify to zero drift, independently of
    // the in-run gate.
    let drift = mttkrp_obs::DriftReport::from_spans(&trace.spans, 1e-9);
    assert!(
        !drift.is_empty(),
        "collective spans carry modeled/measured pairs"
    );
    assert!(drift.ok(), "modeled != measured:\n{}", drift.table());
}

/// `report FILE --gate` replays a trace from a real dist run: prints the
/// span tree and drift table, and exits 0 because measured == modeled.
#[test]
fn report_replays_and_gates_a_dist_trace() {
    let path = temp_trace("dist");
    let (ok, _, stderr) = run_cli(
        "--dims 16x16x16 --rank 8 --mode 0 dist --ranks 4 --trace",
        &path,
    );
    assert!(ok, "traced dist run failed:\n{stderr}");

    let (ok, stdout, stderr) = run_cli("report --gate", &path);
    let _ = std::fs::remove_file(&path);
    assert!(
        ok,
        "report --gate failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    for needle in ["span", "request", "collective", "drift gate", "OK"] {
        assert!(stdout.contains(needle), "missing '{needle}' in:\n{stdout}");
    }
}

/// A corrupt trace fails `report` with a line-numbered schema error, and a
/// drifted trace fails the gate with a nonzero exit.
#[test]
fn report_rejects_corrupt_and_drifted_traces() {
    let path = temp_trace("bad");
    std::fs::write(&path, "{\"type\":\"span\",\"id\":0}\n").unwrap();
    let (ok, _, stderr) = run_cli("report", &path);
    assert!(!ok, "schema-invalid trace must fail");
    assert!(
        stderr.contains("line 1"),
        "expected a line number:\n{stderr}"
    );

    // Hand-build a schema-valid trace whose measured words drift 50% from
    // the model: the gate must trip.
    let drifted = concat!(
        "{\"type\":\"meta\",\"version\":1,\"spans\":1,\"metrics\":0}\n",
        "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"collective\",\"thread\":1,",
        "\"start_us\":0,\"dur_us\":0,\"fields\":{\"phase\":\"all-gather(tensor)\",\"rank\":0,",
        "\"modeled_sent\":100,\"measured_sent\":150}}\n"
    );
    std::fs::write(&path, drifted).unwrap();
    let (ok, stdout, _) = run_cli("report", &path);
    assert!(
        ok,
        "without --gate, drift is reported but not fatal:\n{stdout}"
    );
    assert!(stdout.contains("DRIFT"), "drift row marked:\n{stdout}");
    let (ok, _, stderr) = run_cli("report --gate", &path);
    let _ = std::fs::remove_file(&path);
    assert!(!ok, "--gate must fail on 50% drift");
    assert!(
        stderr.contains("drift"),
        "gate names the failure:\n{stderr}"
    );
}
