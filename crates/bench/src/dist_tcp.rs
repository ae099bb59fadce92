//! The multi-process TCP launcher behind `mttkrp_cli dist --transport tcp`:
//! one OS process per rank on localhost, the identical rank programs the
//! in-process runtime executes, word-exact over real sockets.
//!
//! ```text
//! launcher ──spawn──► rank 0 ──READY(port)──► launcher ──spawn──► ranks 1..P
//!    │                   ▲                        │                    │
//!    └──LAUNCH(trace ctx, operands?)──► every rank│──READY(empty)─────┘
//!                        └────────── rendezvous + full mesh ──────────┘
//!                     (rank programs run; every word over TCP)
//! every rank ──CHUNK + LEDGER──► launcher: assemble, self-gate, exit code
//! ```
//!
//! The control connection reuses the transport's own wire codec
//! ([`mod@mttkrp_dist::transport::wire`]): every rank dials the launcher
//! and announces itself with a `READY` frame *before* joining the mesh
//! (rank 0's carries its rendezvous port), and the launcher answers each
//! with one `LAUNCH` frame — the go signal. A traced launch rides the
//! codec's optional trace header on that frame, so every rank process
//! adopts the launcher's [`TraceContext`] and its spans land in the same
//! cross-process tree as the caller's; the payload optionally ships the
//! exact operand bytes (so a served tensor is factorized bit-identically
//! instead of regenerated from a seed). After the run each rank reports
//! its output chunk and measured [`TrafficLedger`] as `CHUNK`/`LEDGER`
//! frames. The launcher assembles the chunks with the runtime's own
//! assembler and hands everything back for the usual self-gates (bitwise
//! output, schedule word-exactness).
//!
//! Fault injection for the test suite: [`LaunchSpec::kill_rank`] makes
//! the launcher SIGKILL one child right after the mesh is up, while that
//! child (given [`LaunchSpec::stall_ms`]) is still stalling ahead of its
//! first collective — so every other rank is already blocked on it inside
//! a ring step. The transport's failure handling must then surface an
//! error on every peer within its timeout instead of deadlocking.

use mttkrp_dist::transport::wire::{self, Frame};
use mttkrp_dist::{assemble_plan_output, run_plan_rank, OutputChunk, TcpConfig, TcpTransport};
use mttkrp_exec::Plan;
use mttkrp_netsim::TrafficLedger;
use mttkrp_obs::TraceContext;
use mttkrp_tensor::{DenseTensor, Matrix};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Everything a spawned rank process needs to rebuild the run: the
/// problem (regenerated deterministically from the seed), the machine,
/// and its place in the world.
#[derive(Clone, Debug)]
pub struct LaunchSpec {
    /// Tensor dimensions.
    pub dims: Vec<usize>,
    /// CP rank `R`.
    pub rank: usize,
    /// Output mode `n`.
    pub mode: usize,
    /// Operand seed (`setup_problem`).
    pub seed: u64,
    /// World size `P`.
    pub ranks: usize,
    /// Threads per rank process (sizing the local kernel).
    pub threads: usize,
    /// Fast-memory words per rank process.
    pub memory: usize,
    /// Bound on every blocking step (handshake, recv, child exit).
    pub timeout: Duration,
    /// Fault injection: SIGKILL this rank right after the mesh is up.
    pub kill_rank: Option<usize>,
    /// Fault injection: the killed rank stalls this long before its first
    /// collective, so its peers are blocked on it when the kill lands.
    pub stall_ms: u64,
    /// Trace context shipped to every rank on its `LAUNCH` frame, so rank
    /// spans join the caller's cross-process tree. `None` launches
    /// untraced.
    pub ctx: Option<TraceContext>,
    /// When set, each rank is spawned with `--trace <dir>/rank<me>.jsonl`
    /// so its span tree lands on disk for `report --merge`.
    pub rank_trace_dir: Option<PathBuf>,
}

/// What a completed multi-process run reports back.
#[derive(Debug)]
pub struct LaunchOutcome {
    /// The assembled global output `B^(n)`.
    pub output: Matrix,
    /// Measured per-rank ledgers, indexed by world rank.
    pub ledgers: Vec<TrafficLedger>,
}

/// Runs `plan` as `spec.ranks` real child processes of `exe` (the
/// `mttkrp_cli` binary itself, re-invoked with the hidden `dist-rank`
/// subcommand) and collects every rank's chunk and ledger.
///
/// `operands` ships the exact tensor and factors to every rank on its
/// `LAUNCH` frame; `None` has each rank regenerate them from
/// `spec.seed`, which is the word-exact same problem for benchmark runs
/// but cannot represent a caller-supplied tensor.
///
/// Returns `Err` with the original failure's stderr if any child exits
/// nonzero or goes silent past the timeout — never hangs.
pub fn launch(
    exe: &std::path::Path,
    spec: &LaunchSpec,
    plan: &Plan,
    operands: Option<(&DenseTensor, &[&Matrix])>,
) -> Result<LaunchOutcome, String> {
    assert!(
        !plan.algorithm.is_sequential(),
        "the launcher needs a distributed plan"
    );
    if spec.kill_rank.is_some_and(|k| k >= spec.ranks) {
        return Err(format!(
            "kill_rank {} out of range for {} ranks",
            spec.kill_rank.unwrap(),
            spec.ranks
        ));
    }
    let deadline = Instant::now() + spec.timeout;
    let report_listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding the report socket: {e}"))?;
    let report_addr = report_listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();

    // The go signal every rank waits on before joining the mesh: the
    // trace context rides the frame header, shipped operands (if any)
    // ride the payload behind a has-operands flag word.
    let launch_payload: Vec<f64> = match operands {
        Some((x, factors)) => {
            let mut payload = vec![1.0];
            payload.extend(wire::encode_operands(x, factors));
            payload
        }
        None => vec![0.0],
    };
    let launch_frame =
        Frame::data(0, wire::CTRL_LAUNCH, launch_payload).with_trace(spec.ctx.or_else(|| {
            // An untraced spec still inherits the launcher's live context
            // (if any), so `dist --transport tcp --trace ...` runs nest
            // their ranks under the CLI's root span for free.
            mttkrp_obs::current_context()
        }));

    // Rank 0 first: it must bind the rendezvous and tell us where.
    let mut children: Vec<Option<Child>> = (0..spec.ranks).map(|_| None).collect();
    children[0] = Some(spawn_rank(exe, spec, 0, "127.0.0.1:0", &report_addr)?);
    let conn0 = accept_with_deadline(&report_listener, deadline)
        .map_err(|e| format!("rank 0 never reported in: {e}"))?;
    let ready = read_frame_deadline(&conn0, deadline)
        .map_err(|e| format!("reading rank 0's READY frame: {e}"))?;
    if ready.comm_id != wire::CTRL_READY || ready.payload.len() != 1 {
        return Err("rank 0 spoke out of protocol (expected READY)".to_string());
    }
    let rendezvous = format!("127.0.0.1:{}", ready.payload[0] as u16);
    wire::write_frame(&mut &conn0, &launch_frame)
        .map_err(|e| format!("sending rank 0's LAUNCH frame: {e}"))?;

    // The rest of the world dials the announced rendezvous.
    for (me, child) in children.iter_mut().enumerate().skip(1) {
        *child = Some(spawn_rank(exe, spec, me, &rendezvous, &report_addr)?);
    }

    // Result collection runs concurrently with the children so large
    // chunks can't wedge in socket buffers: one reader per connection.
    // Each remaining rank announces READY and is answered with the
    // LAUNCH go-frame before its reader takes over the connection.
    let (tx, rx) =
        std::sync::mpsc::channel::<Result<(usize, OutputChunk, TrafficLedger), String>>();
    let mut readers = Vec::new();
    readers.push(spawn_report_reader(conn0, deadline, tx.clone()));
    let accept_tx = tx.clone();
    let remaining = spec.ranks - 1;
    let acceptor = std::thread::spawn(move || {
        let mut handles = Vec::new();
        for _ in 0..remaining {
            match accept_with_deadline(&report_listener, deadline) {
                Ok(conn) => {
                    let launched = read_frame_deadline(&conn, deadline)
                        .ok()
                        .filter(|ready| ready.comm_id == wire::CTRL_READY)
                        .is_some()
                        && wire::write_frame(&mut &conn, &launch_frame).is_ok();
                    if !launched {
                        continue; // the exit-status sweep reports the death
                    }
                    handles.push(spawn_report_reader(conn, deadline, accept_tx.clone()));
                }
                Err(_) => break, // children died; the exit-status check reports it
            }
        }
        handles
    });
    drop(tx);

    // Fault injection: the stalling target is blocked ahead of its first
    // collective; its peers are inside one. Kill it for real (SIGKILL).
    if let Some(victim) = spec.kill_rank {
        std::thread::sleep(Duration::from_millis(300));
        if let Some(child) = children[victim].as_mut() {
            child
                .kill()
                .map_err(|e| format!("killing rank {victim}: {e}"))?;
        }
    }

    // Every child must exit — success or failure — within the timeout.
    let mut failures: Vec<String> = Vec::new();
    for (me, child) in children.iter_mut().enumerate() {
        let child = child.as_mut().expect("all ranks spawned");
        match wait_with_deadline(child, deadline) {
            Ok(status) if status.success() => {}
            Ok(status) => {
                let mut err = String::new();
                if let Some(stderr) = child.stderr.as_mut() {
                    let _ = stderr.read_to_string(&mut err);
                }
                failures.push(format!(
                    "rank {me} exited with {status}: {}",
                    err.trim().lines().last().unwrap_or("(no stderr)")
                ));
            }
            Err(e) => {
                let _ = child.kill();
                failures.push(format!("rank {me} did not exit in time ({e}); killed"));
            }
        }
    }
    readers.extend(acceptor.join().expect("acceptor thread panicked"));
    let mut results: Vec<Option<(OutputChunk, TrafficLedger)>> =
        (0..spec.ranks).map(|_| None).collect();
    for res in rx {
        match res {
            Ok((me, chunk, ledger)) if me < spec.ranks => results[me] = Some((chunk, ledger)),
            Ok((me, ..)) => failures.push(format!("report from impossible rank {me}")),
            Err(e) => failures.push(e),
        }
    }
    for reader in readers {
        let _ = reader.join();
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    if results.iter().any(Option::is_none) {
        return Err("a rank exited cleanly without reporting its result".to_string());
    }
    let (chunks, ledgers): (Vec<OutputChunk>, Vec<TrafficLedger>) =
        results.into_iter().map(Option::unwrap).unzip();
    Ok(LaunchOutcome {
        output: assemble_plan_output(plan, &chunks),
        ledgers,
    })
}

/// Runs one rank inside a spawned child process: announces READY on the
/// launcher's report connection, waits for the `LAUNCH` go-frame (adopting
/// its trace context and any shipped operands), joins the TCP machine,
/// drives the rank program, and reports the chunk and ledger back.
/// Returns an error string (for stderr + nonzero exit) on any failure,
/// including a peer dying mid-run.
#[allow(clippy::too_many_arguments)]
pub fn run_child_rank(
    plan: &Plan,
    x: &DenseTensor,
    factors: &[&Matrix],
    world_rank: usize,
    ranks: usize,
    connect: &str,
    report: &str,
    stall_ms: u64,
    timeout: Duration,
) -> Result<(), String> {
    let deadline = Instant::now() + timeout;

    // Dial the launcher and announce readiness *before* joining the mesh:
    // rank 0 names its freshly bound rendezvous port, everyone else just
    // says hello. The reply is the LAUNCH go-frame.
    let listener = if world_rank == 0 {
        Some(TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding rendezvous: {e}"))?)
    } else {
        None
    };
    let ready_payload = match &listener {
        Some(listener) => {
            vec![listener.local_addr().map_err(|e| e.to_string())?.port() as f64]
        }
        None => Vec::new(),
    };
    let report_stream =
        TcpStream::connect(report).map_err(|e| format!("dialing the launcher: {e}"))?;
    wire::write_frame(
        &mut &report_stream,
        &Frame::data(world_rank, wire::CTRL_READY, ready_payload),
    )
    .map_err(|e| format!("announcing READY to the launcher: {e}"))?;
    let go = read_frame_deadline(&report_stream, deadline)
        .map_err(|e| format!("waiting for the LAUNCH frame: {e}"))?;
    if go.comm_id != wire::CTRL_LAUNCH || go.payload.is_empty() {
        return Err("launcher spoke out of protocol (expected LAUNCH)".to_string());
    }
    if let Some(ctx) = go.trace {
        // Joins the launcher's cross-process trace: this process's whole
        // span tree records the remote trace id, and `report --merge`
        // re-parents it under the launching span. No-op when capture is
        // off in this process.
        mttkrp_obs::adopt_remote_context(ctx);
    }
    let shipped: Option<(DenseTensor, Vec<Matrix>)> = if go.payload[0] == 1.0 {
        Some(
            wire::decode_operands(&go.payload[1..])
                .map_err(|e| format!("decoding shipped operands: {e}"))?,
        )
    } else {
        None
    };
    let (x, factor_refs): (&DenseTensor, Vec<&Matrix>) = match &shipped {
        Some((sx, sf)) => (sx, sf.iter().collect()),
        None => (x, factors.to_vec()),
    };
    let factors: &[&Matrix] = &factor_refs;

    // Join the machine (rank 0 serves the rendezvous it announced;
    // everyone else dials the launcher-provided address).
    let ep = match listener {
        Some(listener) => TcpTransport::host_on(listener, ranks, timeout)
            .map_err(|e| format!("serving the rendezvous: {e}"))?,
        None => {
            let config = TcpConfig {
                world_rank,
                ranks,
                rendezvous: connect.to_string(),
                timeout,
            };
            TcpTransport::connect(&config)
                .map_err(|e| format!("joining the rendezvous at {connect}: {e}"))?
        }
    };

    if stall_ms > 0 {
        // Fault-injection hook: stall ahead of the first collective so the
        // launcher can SIGKILL this process while its peers block on it.
        std::thread::sleep(Duration::from_millis(stall_ms));
    }

    // The identical rank program the in-process runtime executes — a peer
    // failure panics inside; catch it so the process exits with a
    // diagnostic instead of an abort trace.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut span = mttkrp_obs::span("rank");
        span.record("world_rank", world_rank as u64);
        span.record("ranks", ranks as u64);
        run_plan_rank(plan, x, factors, ep)
    }));
    let (chunk, ledger) = match run {
        Ok(out) => out,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "rank program panicked".to_string());
            return Err(msg);
        }
    };

    // Report back over the control connection.
    wire::write_frame(
        &mut &report_stream,
        &Frame::data(world_rank, wire::CTRL_CHUNK, wire::encode_chunk(&chunk)),
    )
    .and_then(|()| {
        wire::write_frame(
            &mut &report_stream,
            &Frame::data(
                world_rank,
                wire::CTRL_LEDGER,
                wire::encode_ledger(ledger.phases()),
            ),
        )
    })
    .map_err(|e| format!("reporting results to the launcher: {e}"))
}

fn spawn_rank(
    exe: &std::path::Path,
    spec: &LaunchSpec,
    me: usize,
    connect: &str,
    report: &str,
) -> Result<Child, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("--dims")
        .arg(
            spec.dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x"),
        )
        .arg("--rank")
        .arg(spec.rank.to_string())
        .arg("--mode")
        .arg(spec.mode.to_string())
        .arg("--seed")
        .arg(spec.seed.to_string())
        .arg("dist-rank")
        .arg("--ranks")
        .arg(spec.ranks.to_string())
        .arg("--threads")
        .arg(spec.threads.to_string())
        .arg("--memory")
        .arg(spec.memory.to_string())
        .arg("--world-rank")
        .arg(me.to_string())
        .arg("--connect")
        .arg(connect)
        .arg("--report")
        .arg(report)
        .arg("--timeout-secs")
        .arg(spec.timeout.as_secs().max(1).to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    if spec.kill_rank == Some(me) && spec.stall_ms > 0 {
        cmd.arg("--stall-ms").arg(spec.stall_ms.to_string());
    }
    if let Some(dir) = &spec.rank_trace_dir {
        cmd.arg("--trace").arg(dir.join(format!("rank{me}.jsonl")));
    }
    cmd.spawn()
        .map_err(|e| format!("spawning rank {me} ({}): {e}", exe.display()))
}

/// Reads one rank's `CHUNK` + `LEDGER` report from a control connection.
fn spawn_report_reader(
    conn: TcpStream,
    deadline: Instant,
    tx: std::sync::mpsc::Sender<Result<(usize, OutputChunk, TrafficLedger), String>>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let result = (|| -> Result<(usize, OutputChunk, TrafficLedger), String> {
            let chunk_frame = read_frame_deadline(&conn, deadline).map_err(|e| e.to_string())?;
            if chunk_frame.comm_id != wire::CTRL_CHUNK {
                return Err("expected a CHUNK report frame".to_string());
            }
            let ledger_frame = read_frame_deadline(&conn, deadline).map_err(|e| e.to_string())?;
            if ledger_frame.comm_id != wire::CTRL_LEDGER {
                return Err("expected a LEDGER report frame".to_string());
            }
            let chunk = wire::decode_chunk(&chunk_frame.payload).map_err(|e| e.to_string())?;
            let phases = wire::decode_ledger(&ledger_frame.payload).map_err(|e| e.to_string())?;
            Ok((
                chunk_frame.from as usize,
                chunk,
                TrafficLedger::from_phases(phases),
            ))
        })();
        // A failed read usually means the rank died before reporting; the
        // launcher's exit-status sweep owns that diagnosis, so reader
        // errors are advisory only.
        if result.is_ok() {
            let _ = tx.send(result);
        }
    })
}

fn accept_with_deadline(listener: &TcpListener, deadline: Instant) -> std::io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "timed out waiting for a rank to report in",
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
}

fn read_frame_deadline(stream: &TcpStream, deadline: Instant) -> std::io::Result<Frame> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::TimedOut, "report timed out"))?;
    stream.set_read_timeout(Some(remaining))?;
    wire::read_frame(&mut &*stream)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

fn wait_with_deadline(
    child: &mut Child,
    deadline: Instant,
) -> Result<std::process::ExitStatus, String> {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status),
            Ok(None) => {
                if Instant::now() >= deadline {
                    return Err("deadline exceeded".to_string());
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}
