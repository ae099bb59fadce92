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

use mttkrp_dist::transport::wire::{Fabric, Shipment};
use mttkrp_dist::transport::{accept_deadline, read_deadline};
use mttkrp_dist::{assemble_plan_output, run_plan_rank, OutputChunk, TcpConfig, TcpTransport};
use mttkrp_exec::{Algorithm, ExecCost, Plan};
use mttkrp_netsim::{Phase, PhaseTraffic, TrafficLedger};
use mttkrp_obs::TraceContext;
use mttkrp_tensor::{DenseTensor, Matrix};
use std::borrow::Cow;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
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

impl LaunchOutcome {
    /// The run's communication cost, from the measured ledgers.
    pub fn cost(&self) -> ExecCost {
        let totals: Vec<_> = self.ledgers.iter().map(TrafficLedger::totals).collect();
        ExecCost::ParComm {
            max_recv_words: totals.iter().map(|t| t.words_received).max().unwrap_or(0),
            max_sent_words: totals.iter().map(|t| t.words_sent).max().unwrap_or(0),
            total_words: totals.iter().map(|t| t.words_sent).sum(),
            ranks: self.ledgers.len(),
        }
    }
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
    if let Some(k) = spec.kill_rank.filter(|&k| k >= spec.ranks) {
        return Err(format!(
            "kill_rank {k} out of range for {} ranks",
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

    // The go signal every rank waits on before joining the mesh, written
    // once: the trace context rides the frame header, shipped operands (if
    // any) the payload. An untraced spec still inherits the launcher's live
    // context (if any), so `dist --transport tcp --trace ...` runs nest
    // their ranks under the CLI's root span for free. The factors are
    // written from the caller's references: none is copied.
    let ops = operands.map(|(x, factors)| Shipment {
        x: Cow::Borrowed(x),
        factors: factors.iter().map(|&f| Cow::Borrowed(f)).collect(),
    });
    let mut launch_frame = Vec::new();
    let ctx = spec.ctx.or_else(mttkrp_obs::current_context);
    Fabric::Launch { ops }
        .write(&mut launch_frame, 0, ctx)
        .map_err(|e| format!("writing the LAUNCH frame: {e}"))?;

    // Rank 0 first: it must bind the rendezvous and tell us where.
    let mut children: Vec<Option<Child>> = (0..spec.ranks).map(|_| None).collect();
    children[0] = Some(spawn_rank(exe, spec, 0, "127.0.0.1:0", &report_addr)?);
    let conn0 = accept_deadline(&report_listener, deadline)
        .map_err(|e| format!("rank 0 never reported in: {e}"))?;
    let (_, ready) = read_deadline(&conn0, deadline)
        .map_err(|e| format!("reading rank 0's READY frame: {e}"))?;
    let Some(port) = (match ready {
        Fabric::Ready { port } => port.first().and_then(|&p| u16::try_from(p).ok()),
        _ => None,
    }) else {
        return Err("rank 0 spoke out of protocol (expected READY with its port)".to_string());
    };
    let rendezvous = format!("127.0.0.1:{port}");
    let sent = (&conn0).write_all(&launch_frame);
    sent.map_err(|e| format!("sending rank 0's LAUNCH frame: {e}"))?;

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
    readers.push(spawn_report_reader(conn0, deadline, plan, tx.clone()));
    let accept_tx = tx.clone();
    let remaining = spec.ranks - 1;
    let report_plan = plan.clone();
    let acceptor = std::thread::spawn(move || {
        let mut handles = Vec::new();
        for _ in 0..remaining {
            match accept_deadline(&report_listener, deadline) {
                Ok(conn) => {
                    let ready = read_deadline(&conn, deadline);
                    let launched = matches!(ready, Ok((_, Fabric::Ready { .. })))
                        && (&conn).write_all(&launch_frame).is_ok();
                    if !launched {
                        continue; // the exit-status sweep reports the death
                    }
                    let tx = accept_tx.clone();
                    handles.push(spawn_report_reader(conn, deadline, &report_plan, tx));
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
    let Some(results) = results.into_iter().collect::<Option<Vec<_>>>() else {
        return Err("a rank exited cleanly without reporting its result".to_string());
    };
    let (chunks, ledgers): (Vec<OutputChunk>, Vec<TrafficLedger>) = results.into_iter().unzip();
    tiles_the_output(plan, &chunks)?;
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
    let listener = (world_rank == 0).then(|| TcpListener::bind("127.0.0.1:0"));
    let listener = listener
        .transpose()
        .map_err(|e| format!("binding rendezvous: {e}"))?;
    let port = listener.as_ref().map(TcpListener::local_addr).transpose();
    let port = port
        .map_err(|e| e.to_string())?
        .map(|a| u64::from(a.port()));
    let report_stream =
        TcpStream::connect(report).map_err(|e| format!("dialing the launcher: {e}"))?;
    let tag = world_rank as u32;
    let ready = Fabric::Ready {
        port: Cow::Owned(port.into_iter().collect()),
    };
    ready
        .write(&mut &report_stream, tag, None)
        .map_err(|e| format!("announcing READY to the launcher: {e}"))?;
    let go = read_deadline(&report_stream, deadline)
        .map_err(|e| format!("waiting for the LAUNCH frame: {e}"))?;
    let (go, Fabric::Launch { ops }) = go else {
        return Err("launcher spoke out of protocol (expected LAUNCH)".to_string());
    };
    if let Some(ctx) = go.trace {
        // Joins the launcher's cross-process trace: this process's whole
        // span tree records the remote trace id, and `report --merge`
        // re-parents it under the launching span. No-op when capture is
        // off in this process.
        mttkrp_obs::adopt_remote_context(ctx);
    }
    let (x, factor_refs): (&DenseTensor, Vec<&Matrix>) = match &ops {
        Some(ops) => (&ops.x, ops.factors.iter().map(|f| &**f).collect()),
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
    let (chunk, ledger) = run.map_err(|payload| {
        let msg = payload.downcast_ref::<&str>().map(|s| s.to_string());
        let msg = msg.or_else(|| payload.downcast_ref::<String>().cloned());
        msg.unwrap_or_else(|| "rank program panicked".to_string())
    })?;

    // Report back over the control connection.
    let chunk = match &chunk {
        OutputChunk::Row((r0, r1, data)) => (false, *r0, *r1, 0, 0, data),
        OutputChunk::Block((r0, r1, c0, c1, data)) => (true, *r0, *r1, *c0, *c1, data),
    };
    let (block, r0, r1, c0, c1, data) = (
        chunk.0,
        chunk.1,
        chunk.2,
        chunk.3,
        chunk.4,
        Cow::Borrowed(&chunk.5[..]),
    );
    let chunk = Fabric::Chunk {
        block,
        r0,
        r1,
        c0,
        c1,
        data,
    };
    let phases = ledger.phases().iter().flat_map(|t| {
        let (phase, mode) = match t.phase {
            Phase::TensorAllGather => (0, 0),
            Phase::FactorAllGather { mode } => (1, mode as u64),
            Phase::OutputReduceScatter => (2, 0),
            Phase::Unscheduled => (3, 0),
        };
        [phase, mode, t.words_sent, t.words_received, t.messages_sent]
    });
    let ledger = Fabric::Ledger {
        phases: Cow::Owned(phases.collect()),
    };
    (chunk.write(&mut &report_stream, tag, None))
        .and_then(|_| ledger.write(&mut &report_stream, tag, None))
        .map(drop)
        .map_err(|e| format!("reporting results to the launcher: {e}"))
}

fn spawn_rank(
    exe: &std::path::Path,
    spec: &LaunchSpec,
    me: usize,
    connect: &str,
    report: &str,
) -> Result<Child, String> {
    let dims: Vec<String> = spec.dims.iter().map(usize::to_string).collect();
    let mut flags = vec![
        ("--dims", dims.join("x")),
        ("--rank", spec.rank.to_string()),
        ("--mode", spec.mode.to_string()),
        ("--seed", spec.seed.to_string()),
        ("--ranks", spec.ranks.to_string()),
        ("--threads", spec.threads.to_string()),
        ("--memory", spec.memory.to_string()),
        ("--world-rank", me.to_string()),
        ("--connect", connect.to_string()),
        ("--report", report.to_string()),
        ("--timeout-secs", spec.timeout.as_secs().max(1).to_string()),
    ];
    if spec.kill_rank == Some(me) && spec.stall_ms > 0 {
        flags.push(("--stall-ms", spec.stall_ms.to_string()));
    }
    if let Some(dir) = &spec.rank_trace_dir {
        flags.push((
            "--trace",
            dir.join(format!("rank{me}.jsonl")).display().to_string(),
        ));
    }
    let mut cmd = Command::new(exe);
    cmd.arg("dist-rank")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    for (flag, value) in flags {
        cmd.arg(flag).arg(value);
    }
    cmd.spawn()
        .map_err(|e| format!("spawning rank {me} ({}): {e}", exe.display()))
}

/// Reads one rank's `CHUNK` + `LEDGER` report from a control connection.
fn spawn_report_reader(
    conn: TcpStream,
    deadline: Instant,
    plan: &Plan,
    tx: std::sync::mpsc::Sender<Result<(usize, OutputChunk, TrafficLedger), String>>,
) -> std::thread::JoinHandle<()> {
    let plan = plan.clone();
    std::thread::spawn(move || {
        let report = |conn: &TcpStream| read_deadline(conn, deadline).map_err(|e| e.to_string());
        let result = report(&conn).and_then(|(header, chunk)| {
            let chunk = output_chunk(&plan, chunk)?;
            Ok((
                header.from as usize,
                chunk,
                traffic_ledger(report(&conn)?.1)?,
            ))
        });
        // A failed read usually means the rank died before reporting; the
        // launcher's exit-status sweep owns that diagnosis, so reader
        // errors are advisory only.
        if result.is_ok() {
            let _ = tx.send(result);
        }
    })
}

/// The `CHUNK` check: a chunk of the kind the plan's algorithm produces,
/// its range inside the plan's `I_n × R` output, and as many words as the
/// range holds.
fn output_chunk(plan: &Plan, message: Fabric<'_>) -> Result<OutputChunk, String> {
    let Fabric::Chunk {
        block,
        r0,
        r1,
        c0,
        c1,
        data,
    } = message
    else {
        return Err("expected a CHUNK report frame".to_string());
    };
    let (rows, cols) = (
        plan.problem.dims[plan.mode] as usize,
        plan.problem.rank as usize,
    );
    let blocks = matches!(plan.algorithm, Algorithm::ParGeneral { .. });
    let (c0, c1) = if block { (c0, c1) } else { (0, cols) };
    let area = (r1.checked_sub(r0).zip(c1.checked_sub(c0))).and_then(|(h, w)| h.checked_mul(w));
    if block != blocks || r1 > rows || c1 > cols || area != Some(data.len()) {
        let words = data.len();
        return Err(format!(
            "a CHUNK of rows {r0}..{r1}, columns {c0}..{c1} and {words} words does not fit \
             the {rows} x {cols} output"
        ));
    }
    let data = data.into_owned();
    Ok(if block {
        OutputChunk::Block((r0, r1, c0, c1, data))
    } else {
        OutputChunk::Row((r0, r1, data))
    })
}

/// The `LEDGER` check: `[phase, mode, sent, received, messages]` per
/// collective, each phase tag one of the four.
fn traffic_ledger(message: Fabric<'_>) -> Result<TrafficLedger, String> {
    let Fabric::Ledger { phases } = message else {
        return Err("expected a LEDGER report frame".to_string());
    };
    let (groups, []) = phases.as_chunks::<5>() else {
        return Err(format!(
            "a LEDGER of {} words is not whole phases",
            phases.len()
        ));
    };
    let phase = |&[tag, mode, words_sent, words_received, messages_sent]: &[u64; 5]| {
        let phase = match (tag, usize::try_from(mode)) {
            (0, _) => Phase::TensorAllGather,
            (1, Ok(mode)) => Phase::FactorAllGather { mode },
            (2, _) => Phase::OutputReduceScatter,
            (3, _) => Phase::Unscheduled,
            _ => return Err(format!("a LEDGER phase tagged {tag}")),
        };
        Ok(PhaseTraffic {
            phase,
            words_sent,
            words_received,
            messages_sent,
        })
    };
    let phases: Result<Vec<_>, String> = groups.iter().map(phase).collect();
    phases.map(TrafficLedger::from_phases)
}

/// The ranks' chunks cover the output exactly once: pairwise disjoint, and
/// together as large as it is (what the assembler asserts).
fn tiles_the_output(plan: &Plan, chunks: &[OutputChunk]) -> Result<(), String> {
    let cols = plan.problem.rank as usize;
    let rect = |c: &OutputChunk| match c {
        OutputChunk::Row((r0, r1, _)) => (*r0, *r1, 0, cols),
        OutputChunk::Block((r0, r1, c0, c1, _)) => (*r0, *r1, *c0, *c1),
    };
    let rects: Vec<_> = chunks.iter().map(rect).collect();
    let area: usize = rects
        .iter()
        .map(|(r0, r1, c0, c1)| (r1 - r0) * (c1 - c0))
        .sum();
    let overlap = |(i, a): (usize, &(usize, usize, usize, usize))| {
        (rects[i + 1..].iter()).any(|b| a.0 < b.1 && b.0 < a.1 && a.2 < b.3 && b.2 < a.3)
    };
    let whole = plan.problem.dims[plan.mode] as usize * cols;
    if area != whole || rects.iter().enumerate().any(overlap) {
        return Err(format!(
            "the ranks' chunks do not tile the {whole}-entry output"
        ));
    }
    Ok(())
}

fn wait_with_deadline(child: &mut Child, deadline: Instant) -> Result<ExitStatus, String> {
    loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Ok(status);
        } else if Instant::now() >= deadline {
            return Err("deadline exceeded".to_string());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[cfg(test)]
#[path = "../../dist/tests/support/rows.rs"]
mod rows;

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_core::Problem;
    use mttkrp_dist::transport::wire::{Dir, Frame};
    use mttkrp_exec::{MachineSpec, Planner};
    use mttkrp_tensor::Shape;

    /// A two-rank plan of a 5 x 4 x 2 tensor at R = 2: its output is 5 x 2.
    fn plan() -> Plan {
        let problem = Problem::from_shape(&Shape::new(&[5, 4, 2]), 2);
        Planner::new(MachineSpec::cluster(2, 1, 1 << 12)).plan_executable(&problem, 0)
    }

    /// A report's words under `id`, read and checked as the launcher does.
    fn report(plan: &Plan, id: u64, words: &[f64]) -> Result<(), String> {
        let frame = Frame::data(1, id, words.to_vec());
        let message = Fabric::decode(&frame, Dir::Ask).map_err(|e| e.to_string())?;
        match id {
            Fabric::CHUNK => output_chunk(plan, message).map(drop),
            _ => traffic_ledger(message).map(drop),
        }
    }

    /// A reversed range cast to counts reached the assembler's
    /// `(end - start) * r` and panicked the launcher; a range past the
    /// output, bounds whose area overflows, a length that disagrees with the
    /// range, the other chunk kind and a count that is no integer are all
    /// refused before it now, and so are chunks that overlap or leave a gap.
    #[test]
    fn a_chunk_that_does_not_fit_its_plan_is_refused_not_assembled() {
        let plan = plan();
        let blocks = matches!(plan.algorithm, Algorithm::ParGeneral { .. });
        let (kind, other) = if blocks { (1.0, 0.0) } else { (0.0, 1.0) };
        let chunk = |head: [f64; 4], n: usize| [&[kind][..], &head, &vec![0.5; n]].concat();
        // Rows 1..3, all columns: four words.
        assert_eq!(
            report(&plan, Fabric::CHUNK, &chunk([1.0, 3.0, 0.0, 2.0], 4)),
            Ok(())
        );
        let big = (1u64 << 32) as f64;
        for (words, why) in [
            (chunk([5.0, 2.0, 0.0, 2.0], 0), "a reversed range"),
            (chunk([4.0, 6.0, 0.0, 2.0], 4), "rows past the output"),
            (
                [&[1.0, 0.0, big, 0.0, big][..], &[0.5]].concat(),
                "an area that overflows",
            ),
            (chunk([0.0, 1.0, 0.0, 2.0], 1), "one word for a row of two"),
            (
                chunk([0.0, 1.0, 0.0, 2.0], 3),
                "three words for a row of two",
            ),
            (
                [&[other][..], &chunk([0.0, 1.0, 0.0, 2.0], 2)[1..]].concat(),
                "the other kind",
            ),
            (chunk([0.5, 1.0, 0.0, 2.0], 0), "a fractional bound"),
            (chunk([-1.0, 1.0, 0.0, 2.0], 0), "a negative bound"),
            (chunk([f64::NAN, 1.0, 0.0, 2.0], 0), "a NaN bound"),
        ] {
            assert!(report(&plan, Fabric::CHUNK, &words).is_err(), "{why}");
        }
        let tile = |r0, r1| match blocks {
            false => OutputChunk::Row((r0, r1, vec![0.0; 2 * (r1 - r0)])),
            true => OutputChunk::Block((r0, r1, 0, 2, vec![0.0; 2 * (r1 - r0)])),
        };
        assert!(tiles_the_output(&plan, &[tile(0, 3), tile(3, 5)]).is_ok());
        assert!(
            tiles_the_output(&plan, &[tile(0, 3), tile(2, 5)]).is_err(),
            "an overlap"
        );
        assert!(tiles_the_output(&plan, &[tile(0, 3)]).is_err(), "a gap");
    }

    /// The hostile-frame property at the launcher, generated from the rank
    /// fabric's table: every `CHUNK` and `LEDGER` cut at a field boundary
    /// or with a length word at 0, 1, the limit or past it is an error,
    /// never a panic — all but a cut that leaves an empty ledger, which is
    /// a well-formed report of no collectives.
    #[test]
    fn hostile_reports_are_errors_not_panics() {
        let plan = plan();
        for row in Fabric::ROWS
            .iter()
            .filter(|r| ["CHUNK", "LEDGER"].contains(&r.name))
        {
            let sample = ("the sample".to_string(), super::rows::sample(row));
            for (why, words) in super::rows::hostile(row).into_iter().chain([sample]) {
                let refused = report(&plan, row.id, &words).is_err();
                let empty_ledger = row.id == Fabric::LEDGER && words.is_empty();
                assert!(refused || empty_ledger, "{}: {why}", row.name);
            }
        }
        let ledger = [0.0, 0.0, 1.0, 1.0, 1.0, 9.0, 0.0, 0.0, 0.0, 0.0];
        assert!(report(&plan, Fabric::LEDGER, &ledger[..5]).is_ok());
        assert!(
            report(&plan, Fabric::LEDGER, &ledger).is_err(),
            "phase tag 9"
        );
        assert!(
            report(&plan, Fabric::LEDGER, &ledger[..7]).is_err(),
            "a partial phase"
        );
    }
}
