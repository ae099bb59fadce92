//! Command-line driver for the whole stack on synthetic problems.
//!
//! - the paper's algorithms on the word-counting simulators, measured
//!   communication printed next to the lower bounds and cost models:
//!   `alg1`, `alg2`, `seqmm`, `alg3`, `alg4`, `parmm`, `bounds`;
//! - the cost-model planner and the backends it drives: `exec`, the
//!   self-gating multi-rank `dist`, `cp-als` (with its `--gate` matrix);
//! - the network front door and its ops plane: `listen`, `stats`, `report`.
//!
//! `mttkrp_cli --help` prints every subcommand with its options (the text
//! lives in `usage()` below). Every live subcommand takes `--trace
//! FILE.jsonl` and `--metrics`; a traced run that recorded
//! modeled-vs-measured collective pairs applies the drift gate on exit.
//! How fast any of this runs is not measured here: that is
//! `benchmark/run.sh`.
//!
//! Example: `cargo run --release -p mttkrp-bench --bin mttkrp_cli -- \
//!            --dims 16x16x16 --rank 8 --mode 0 alg3 --grid 2x2x2`

use mttkrp_bench::setup_problem;
use mttkrp_core::{bounds, model, par, seq, Problem};
use mttkrp_tensor::{mttkrp_reference, Matrix};
use std::process::ExitCode;

#[derive(Default, Debug)]
struct Args {
    dims: Vec<usize>,
    rank: usize,
    mode: usize,
    seed: u64,
    memory: Option<usize>,
    block: Option<usize>,
    grid: Option<Vec<usize>>,
    p0: Option<usize>,
    procs: Option<usize>,
    backend: Option<String>,
    threads: Option<usize>,
    ranks: Option<usize>,
    transport: Option<String>,
    algorithm: Option<String>,
    // Hidden `dist-rank` / fault-injection options (see `dist_tcp`).
    world_rank: Option<usize>,
    connect: Option<String>,
    report: Option<String>,
    stall_ms: Option<u64>,
    kill_rank: Option<usize>,
    timeout_secs: Option<u64>,
    // `listen` options: the serving engine and the network front door.
    workers: Option<usize>,
    cache: Option<usize>,
    bind: Option<String>,
    cap: Option<usize>,
    retry_ms: Option<u64>,
    // `cp-als` options (`--gate`/`--tol` are shared with `report`).
    sweeps: Option<usize>,
    tol: Option<f64>,
    gate: bool,
    // `stats`: emit the scrape as one machine-readable object.
    json: bool,
    // Observability: capture the run through `mttkrp-obs`.
    trace: Option<String>,
    metrics: bool,
    // Ops plane: `stats --watch`, `report --merge`, and the listen-side
    // multi-process dist executor.
    watch: Option<u64>,
    merge: bool,
    dist_exec: Option<String>,
    rank_trace_dir: Option<String>,
    // Positionals after the subcommand: `report`'s trace file(s), or
    // `stats`' server address.
    inputs: Vec<String>,
}

/// Every subcommand a user may name (`dist-rank`, which `dist --transport
/// tcp` spawns once per rank, is hidden).
const SUBCOMMANDS: &[&str] = &[
    "alg1", "alg2", "seqmm", "alg3", "alg4", "parmm", "bounds", "exec", "dist", "listen", "cp-als",
    "report", "stats",
];

fn parse_dims(s: &str) -> Result<Vec<usize>, String> {
    s.split(['x', ','])
        .map(|t| {
            t.parse::<usize>()
                .map_err(|e| format!("bad dims '{s}': {e}"))
        })
        .collect()
}

/// A flag's value, parsed.
fn num<T: std::str::FromStr>(value: Result<&String, String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value?.parse().map_err(|e| format!("{e}"))
}

/// `--transport channel|tcp`.
fn transport_of(args: &Args) -> Result<mttkrp_exec::TransportSpec, ExitCode> {
    match args.transport.as_deref() {
        None | Some("channel") => Ok(mttkrp_exec::TransportSpec::InProcess),
        Some("tcp") => Ok(mttkrp_exec::TransportSpec::Tcp),
        Some(other) => Err(bad_usage(format!(
            "unknown transport '{other}' (channel|tcp)"
        ))),
    }
}

/// `--memory`, or the default fast-memory size.
fn memory(args: &Args) -> usize {
    args.memory.unwrap_or(mttkrp_exec::DEFAULT_CACHE_WORDS)
}

/// A `ranks`-rank cluster of `--threads` (default 1) threads and
/// [`memory`] words per rank, over `transport`.
fn cluster(
    args: &Args,
    ranks: usize,
    transport: mttkrp_exec::TransportSpec,
) -> mttkrp_exec::MachineSpec {
    let threads = args.threads.unwrap_or(1);
    mttkrp_exec::MachineSpec::cluster(ranks, threads, memory(args)).with_transport(transport)
}

/// Prints `error: {msg}` and returns the usage-error exit code, 2.
fn bad_usage(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

/// Prints `error: {msg}` and returns the failure exit code.
fn failure(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        rank: 4,
        seed: 1,
        ..Default::default()
    };
    let mut it = argv.iter();
    while let Some(tok) = it.next() {
        let flag = tok.as_str();
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag {
            "--dims" => args.dims = parse_dims(value()?)?,
            "--rank" => args.rank = num(value())?,
            "--mode" => args.mode = num(value())?,
            "--seed" => args.seed = num(value())?,
            "--memory" => args.memory = Some(num(value())?),
            "--block" => args.block = Some(num(value())?),
            "--grid" => args.grid = Some(parse_dims(value()?)?),
            "--p0" => args.p0 = Some(num(value())?),
            "--procs" => args.procs = Some(num(value())?),
            "--backend" => args.backend = Some(value()?.clone()),
            "--threads" => args.threads = Some(num(value())?),
            "--ranks" => args.ranks = Some(num(value())?),
            "--transport" => args.transport = Some(value()?.clone()),
            "--world-rank" => args.world_rank = Some(num(value())?),
            "--connect" => args.connect = Some(value()?.clone()),
            "--report" => args.report = Some(value()?.clone()),
            "--stall-ms" => args.stall_ms = Some(num(value())?),
            "--kill-rank" => args.kill_rank = Some(num(value())?),
            "--timeout-secs" => args.timeout_secs = Some(num(value())?),
            "--workers" => args.workers = Some(num(value())?),
            "--cache" => args.cache = Some(num(value())?),
            "--sweeps" => args.sweeps = Some(num(value())?),
            "--tol" => args.tol = Some(num(value())?),
            "--bind" => args.bind = Some(value()?.clone()),
            "--cap" => args.cap = Some(num(value())?),
            "--retry-ms" => args.retry_ms = Some(num(value())?),
            "--gate" => args.gate = true,
            "--json" => args.json = true,
            "--trace" => args.trace = Some(value()?.clone()),
            "--metrics" => args.metrics = true,
            "--watch" => args.watch = Some(num(value())?),
            "--merge" => args.merge = true,
            "--dist-exec" => args.dist_exec = Some(value()?.clone()),
            "--rank-trace-dir" => args.rank_trace_dir = Some(value()?.clone()),
            "--help" | "-h" => return Err("help".to_string()),
            // The subcommand is checked where it is named, so a retired one
            // is reported as such even when positionals follow it.
            other if !other.starts_with('-') && args.algorithm.is_none() => {
                if other != "dist-rank" && !SUBCOMMANDS.contains(&other) {
                    return Err(format!(
                        "unknown algorithm '{other}' ({})",
                        SUBCOMMANDS.join("|")
                    ));
                }
                args.algorithm = Some(other.to_string());
            }
            other
                if !other.starts_with('-')
                    && matches!(args.algorithm.as_deref(), Some("report") | Some("stats")) =>
            {
                args.inputs.push(other.to_string());
            }
            other => return Err(format!("unrecognized argument '{other}'")),
        }
    }
    let Some(alg) = args.algorithm.as_deref() else {
        return Err(format!("no algorithm given ({})", SUBCOMMANDS.join("|")));
    };
    // `listen` takes its shapes off the wire, `cp-als` builds its own
    // synthetic rank-R tensor, and `report`/`stats` read a trace file or a
    // live server; --dims (if given) only seeds the base shape, so it may be
    // omitted for any of them.
    if args.dims.is_empty() && matches!(alg, "listen" | "cp-als" | "report" | "stats") {
        args.dims = match alg {
            "cp-als" => vec![12, 10, 8],
            _ => vec![16, 16, 16],
        };
    }
    if args.dims.len() < 2 {
        return Err("need --dims with at least two modes (e.g. --dims 16x16x16)".into());
    }
    if args.mode >= args.dims.len() {
        return Err(format!(
            "--mode {} out of range for an order-{} tensor",
            args.mode,
            args.dims.len()
        ));
    }
    // A zero here is never a smaller run, only a division by zero or an
    // `assert!` further down; one table rejects them for every subcommand.
    for (what, zero) in [
        ("every --dims extent", args.dims.contains(&0)),
        ("--rank", args.rank == 0),
        ("--block", args.block == Some(0)),
        (
            "every --grid factor",
            args.grid.as_ref().is_some_and(|g| g.contains(&0)),
        ),
        ("--p0", args.p0 == Some(0)),
        ("--procs", args.procs == Some(0)),
        ("--threads", args.threads == Some(0)),
        ("--ranks", args.ranks == Some(0)),
        ("--workers", args.workers == Some(0)),
        ("--cache", args.cache == Some(0)),
        ("--cap", args.cap == Some(0)),
        ("--sweeps", args.sweeps == Some(0)),
        ("--watch", args.watch == Some(0)),
    ] {
        if zero {
            return Err(format!("{what} must be at least 1"));
        }
    }
    // Flags are parsed globally but only some subcommands honor them;
    // reject half-applying combinations instead of silently ignoring them.
    for (flag, given) in [
        ("--bind", args.bind.is_some()),
        ("--cap", args.cap.is_some()),
        ("--retry-ms", args.retry_ms.is_some()),
        ("--workers", args.workers.is_some()),
        ("--cache", args.cache.is_some()),
    ] {
        if given && alg != "listen" {
            return Err(format!(
                "{flag} configures the network front door or its serving engine (listen), \
                 not valid for '{alg}'"
            ));
        }
    }
    for (flag, given, takers) in [
        ("--json", args.json, &["stats"][..]),
        ("--gate", args.gate, &["cp-als", "report"]),
        ("--tol", args.tol.is_some(), &["cp-als", "report"]),
        ("--sweeps", args.sweeps.is_some(), &["cp-als"]),
        ("--watch", args.watch.is_some(), &["stats"]),
        ("--merge", args.merge, &["report"]),
        ("--dist-exec", args.dist_exec.is_some(), &["listen"]),
        (
            "--rank-trace-dir",
            args.rank_trace_dir.is_some(),
            &["listen", "dist"],
        ),
    ] {
        if given && !takers.contains(&alg) {
            let takers = takers.join("/");
            return Err(format!("{flag} is a {takers} flag, not valid for '{alg}'"));
        }
    }
    // `report` replays a finished trace and `stats` scrapes a live server;
    // neither runs anything to capture. A `dist-rank` child MAY take
    // --trace (the launcher passes it for cross-process merging) but has no
    // summary of its own to print.
    if (args.trace.is_some() || args.metrics) && matches!(alg, "report" | "stats") {
        return Err(format!(
            "--trace/--metrics instrument a live run, not valid for '{alg}'"
        ));
    }
    if args.metrics && alg == "dist-rank" {
        return Err("--metrics is a launcher-side flag, not valid for 'dist-rank'".into());
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: mttkrp_cli --dims I1xI2x... --rank R --mode n [--seed s] ALGORITHM [options]\n\
         \n  alg1  --memory M             Algorithm 1 (sequential unblocked)\
         \n  alg2  --memory M [--block b] Algorithm 2 (sequential blocked)\
         \n  seqmm --memory M             sequential matmul baseline\
         \n  alg3  --grid P1xP2x...       Algorithm 3 (parallel stationary)\
         \n  alg4  --p0 P0 --grid ...     Algorithm 4 (parallel general)\
         \n  parmm --procs P              parallel 1D matmul baseline\
         \n  bounds [--memory M] [--procs P]  print lower bounds only\
         \n  exec  [--backend native|sim] [--threads T] [--memory M] [--procs P]\
         \n                               cost-model-driven plan + execution\
         \n  dist  --ranks P [--transport channel|tcp] [--threads T] [--memory M]\
         \n                               sharded multi-rank execution (channel\
         \n                               threads, or one process per rank over\
         \n                               TCP) with a self-gating\
         \n                               schedule/bitwise check\
         \n  listen [--bind ADDR] [--cap K] [--retry-ms MS] [--workers W]\
         \n         [--cache C] [--threads T] [--memory M]\
         \n                               long-lived network front door; prints\
         \n                               `listening on <addr>`, serves until\
         \n                               stdin closes, then drains gracefully;\
         \n                               --workers: MTTKRPs run at once, and the\
         \n                               threads that run the socket's MTTKRPs\
         \n                               and factorizations (default 2)\
         \n  cp-als [--sweeps S] [--tol T] [--backend auto|native|sim|dist|dist-tcp]\
         \n         [--ranks P] [--transport channel|tcp] [--threads T]\
         \n         [--memory M] [--gate]\
         \n                               CP-ALS factorization of a synthetic\
         \n                               rank-R tensor through the plan-cached\
         \n                               engine; --gate self-checks fit >= 0.999,\
         \n                               bitwise native-vs-dist identity,\
         \n                               plan-cache misses == N modes, and tensor\
         \n                               passes per sweep == the sweep plan's,\
         \n                               exiting nonzero on violation\
         \n  report FILE.jsonl [--gate] [--tol T]\
         \n                               pretty-print a --trace capture: span\
         \n                               tree, top metrics, and the drift table;\
         \n                               --gate exits nonzero on modeled-vs-\
         \n                               measured drift beyond --tol (default 1%)\
         \n  report --merge A.jsonl B.jsonl ...\
         \n                               stitch per-process traces (client,\
         \n                               server, rank children) into one tree\
         \n                               keyed by trace id, then report/gate it\
         \n  stats ADDR [--watch SECS] [--json]\
         \n                               scrape a live front door's metrics and\
         \n                               health over one STATS frame (never\
         \n                               shed, never counted against the cap)\
         \n\
         \nops-plane extras: `listen --dist-exec proc [--ranks P]\
         \n  [--rank-trace-dir DIR]` puts one real OS process per rank behind\
         \n  every served factorization; `cp-als --connect ADDR` sends the\
         \n  factorization to a live front door with this process's trace\
         \n  context on the request frame\
         \n\
         \nevery live subcommand also takes:\
         \n  --trace FILE.jsonl           capture spans + metrics as JSONL\
         \n  --metrics                    print the human summary after the run"
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            usage();
            return ExitCode::from(2);
        }
    };
    if args.algorithm.as_deref() == Some("report") {
        return run_report(&args);
    }
    if args.algorithm.as_deref() == Some("stats") {
        return run_stats(&args);
    }

    // Fault path of the flight recorder: the ring retains the last span
    // closes even with capture off, so a panicking run can explain its
    // recent past on stderr before dying.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        let records = mttkrp_obs::flight_snapshot();
        if !records.is_empty() {
            eprintln!("--- flight recorder ({} span close(s)) ---", records.len());
            eprint!("{}", mttkrp_obs::flight_to_jsonl(&records));
        }
    }));

    // --trace / --metrics: capture the whole run through mttkrp-obs, under
    // one root "request" span, and post-process the recording on exit.
    let cap = (args.trace.is_some() || args.metrics).then(mttkrp_obs::capture);
    let code = {
        let mut root = mttkrp_obs::span("request");
        if root.is_active() {
            root.record("kind", args.algorithm.clone().unwrap_or_default());
            let dims: Vec<String> = args.dims.iter().map(usize::to_string).collect();
            root.record("dims", dims.join("x"));
            root.record("rank", args.rank);
        }
        run(&args)
    };
    match cap {
        Some(cap) => finish_capture(cap.finish(), &args, code),
        None => code,
    }
}

/// Writes/prints a finished capture and applies the drift gate: when the
/// run recorded modeled-vs-measured collective pairs, any drift beyond 1%
/// turns a successful exit into a failure.
fn finish_capture(rec: mttkrp_obs::Recording, args: &Args, code: ExitCode) -> ExitCode {
    let mut code = code;
    if let Some(path) = &args.trace {
        if let Err(e) = rec.write_jsonl(std::path::Path::new(path)) {
            eprintln!("error: cannot write trace to {path}: {e}");
            code = ExitCode::FAILURE;
        } else {
            println!(
                "trace                {} span(s), {} metric(s) -> {path}",
                rec.spans.len(),
                rec.metrics.len()
            );
        }
    }
    if args.metrics {
        println!("{}", rec.summary());
    }
    let drift = mttkrp_obs::DriftReport::from_spans(&rec.nodes(), DRIFT_TOLERANCE);
    if let Some(worst) = drift.worst() {
        // One verdict line on success; the full pair table (from `report`)
        // is for the failure path and offline analysis.
        println!(
            "drift gate           {} modeled/measured pair(s), worst rel err {:.5} \
             (tolerance {DRIFT_TOLERANCE}) -> {}",
            drift.len(),
            worst.rel_error(),
            if drift.ok() { "OK" } else { "FAIL" }
        );
        if !drift.ok() {
            eprint!("{}", drift.table());
            eprintln!("error: measured collective traffic drifts from the paper's model");
            code = ExitCode::FAILURE;
        }
    }
    code
}

/// Relative drift between a collective's modeled and measured word counts
/// that the gate tolerates. The transports are word-exact by construction
/// (the dist suite asserts equality), so any drift is a model regression.
const DRIFT_TOLERANCE: f64 = 0.01;

/// Runs a parsed command line (everything except `report`, which
/// never runs a problem).
fn run(args: &Args) -> ExitCode {
    // `listen` speaks to launchers: its first stdout line is the bound
    // address, so it dispatches before any narration.
    if args.algorithm.as_deref() == Some("listen") {
        return run_listen(args);
    }
    let problem = Problem::new(
        &args.dims.iter().map(|&d| d as u64).collect::<Vec<u64>>(),
        args.rank as u64,
    );
    let n = args.mode;
    println!(
        "problem: dims {:?}, R = {}, mode n = {n}, I = {}, seed {}",
        args.dims,
        args.rank,
        problem.tensor_entries(),
        args.seed
    );

    let alg = args.algorithm.as_deref().unwrap();
    // `cp-als` builds its own synthetic rank-R Kruskal tensor.
    if alg == "cp-als" {
        return run_cp_als(args);
    }
    // `bounds` is formula-only: never materialize the (possibly huge) tensor.
    let materialized = if alg == "bounds" {
        None
    } else {
        if problem.tensor_entries() > (1u128 << 26) {
            return bad_usage(format!(
                "refusing to materialize {} tensor entries for an executed run \
                 (use `bounds` for model-scale problems)",
                problem.tensor_entries()
            ));
        }
        Some(setup_problem(&args.dims, args.rank, args.seed))
    };
    let (x, factors) = match &materialized {
        Some((x, f)) => (x, f),
        None => {
            // `bounds` path: handled below without operands.
            return run_bounds_only(args, &problem);
        }
    };
    let refs: Vec<&Matrix> = factors.iter().collect();
    let order = args.dims.len();
    // The simulators `assert!` their documented preconditions; a command
    // line that breaks one is a usage error, not a crash.
    match alg {
        "alg1" | "alg2" | "seqmm" => {
            let Some(m) = args.memory else {
                return bad_usage(format!("{alg} needs --memory M"));
            };
            // One word per operand of the innermost multiply: N + 1 for
            // Algorithms 1 and 2 (Eq. (11) at b = 1), max(N, 3) for matmul.
            let min_m = if alg == "seqmm" {
                order.max(3)
            } else {
                order + 1
            };
            if m < min_m {
                return bad_usage(format!(
                    "{alg} on an order-{order} tensor needs --memory of at least {min_m} words"
                ));
            }
            let (label, run) = match alg {
                "alg1" => (
                    "Algorithm 1 (unblocked)",
                    seq::mttkrp_unblocked(x, &refs, n, m),
                ),
                "alg2" => {
                    let b = args
                        .block
                        .unwrap_or_else(|| seq::choose_block_size(m, order));
                    let fits = b
                        .checked_pow(order as u32)
                        .and_then(|pow| pow.checked_add(order * b))
                        .is_some_and(|words| words <= m);
                    if !fits {
                        return bad_usage(format!(
                            "--block {b} violates Eq. (11): b^N + N*b must fit in --memory {m}"
                        ));
                    }
                    println!("block size b = {b}");
                    (
                        "Algorithm 2 (blocked)",
                        seq::mttkrp_blocked(x, &refs, n, m, b),
                    )
                }
                _ => (
                    "sequential matmul baseline",
                    seq::mttkrp_seq_matmul(x, &refs, n, m).into_seq_run(),
                ),
            };
            let oracle = mttkrp_reference(x, &refs, n);
            println!(
                "{label}: W = {} words (loads {}, stores {})",
                run.stats.total(),
                run.stats.loads,
                run.stats.stores
            );
            println!("peak fast memory: {} / {m} words", run.peak_fast);
            println!(
                "lower bounds: Thm 4.1 = {:.0}, Fact 4.1 = {:.0}",
                bounds::seq_memory_dependent(&problem, m as u64),
                bounds::seq_trivial(&problem, m as u64)
            );
            let diff = run.output.max_abs_diff(&oracle);
            println!("oracle check: max |diff| = {diff:.2e}");
        }
        "alg3" | "alg4" | "parmm" => {
            let run = if alg == "parmm" {
                let Some(procs) = args.procs else {
                    return bad_usage("parmm needs --procs P");
                };
                par::mttkrp_par_matmul(x, &refs, n, procs)
            } else {
                let grid = match &args.grid {
                    Some(g) if g.len() == order => g,
                    _ => return bad_usage(format!("{alg} needs --grid with one factor per mode")),
                };
                if alg == "alg3" {
                    par::mttkrp_stationary(x, &refs, n, grid)
                } else {
                    par::mttkrp_general(x, &refs, n, args.p0.unwrap_or(1), grid)
                }
            };
            let procs = run.stats.len() as u64;
            let oracle = mttkrp_reference(x, &refs, n);
            println!(
                "P = {procs}: max {} words/rank received ({} sent); machine total {}",
                run.max_recv_words(),
                run.max_sent_words(),
                run.summary.total_words
            );
            if alg == "alg3" {
                if let Some(g) = &args.grid {
                    let g64: Vec<u64> = g.iter().map(|&v| v as u64).collect();
                    println!(
                        "Eq. (14) model: {:.0} words",
                        model::alg3_cost(&problem, &g64)
                    );
                }
            }
            println!(
                "lower bounds: Thm 4.2 = {:.0}, Thm 4.3 = {:.0}",
                bounds::par_mi_thm42(&problem, procs, 1.0, 1.0),
                bounds::par_mi_thm43(&problem, procs, 1.0, 1.0)
            );
            let diff = run.output.max_abs_diff(&oracle);
            println!("oracle check: max |diff| = {diff:.2e}");
        }
        "exec" => return run_exec(args, &problem, x, &refs),
        "dist" => return run_dist(args, &problem, x, &refs),
        "dist-rank" => return run_dist_rank(args, &problem, x, &refs),
        other => unreachable!("parse() admitted unknown subcommand '{other}'"),
    }
    ExitCode::SUCCESS
}

/// The `exec` subcommand: let the paper's cost models pick the algorithm,
/// then run it on the requested backend (default: the plan's natural one).
fn run_exec(
    args: &Args,
    problem: &Problem,
    x: &mttkrp_tensor::DenseTensor,
    refs: &[&Matrix],
) -> ExitCode {
    use mttkrp_exec::{Backend, ExecCost, MachineSpec, NativeBackend, Planner, SimBackend};

    let threads = args.threads.unwrap_or_else(MachineSpec::detect_threads);
    let machine = MachineSpec {
        threads,
        fast_memory_words: memory(args),
        ranks: args.procs.unwrap_or(1),
        transport: mttkrp_exec::TransportSpec::InProcess,
    };
    if args.block.is_some() {
        println!("note: exec chooses the block size from the cost model; --block is ignored");
    }
    let plan = Planner::new(machine).plan_executable(problem, args.mode);
    println!("{plan}");

    // Resolve the backend up front (default: the plan's natural target) so
    // the "flag ignored" notes reflect what actually runs, not flag text.
    let use_native = match args.backend.as_deref() {
        Some("native") => true,
        Some("sim") => false,
        None => plan.algorithm.is_sequential(),
        Some(other) => return bad_usage(format!("unknown backend '{other}' (native|sim)")),
    };
    if !use_native && args.threads.is_some() {
        println!("note: the sim backend counts words, not time; --threads is ignored there");
    }
    let report = if use_native {
        if !plan.algorithm.is_sequential() {
            println!(
                "note: the native backend runs its shared-memory kernel; the plan's \
                 distributed schedule ({}) applies to the sim backend",
                plan.algorithm
            );
        }
        NativeBackend::new(threads, plan.machine.fast_memory_words).execute(&plan, x, refs)
    } else {
        SimBackend::new().execute(&plan, x, refs)
    };
    match &report.cost {
        ExecCost::SeqIo {
            loads,
            stores,
            peak_fast,
        } => println!(
            "[{}] W = {} words (loads {loads}, stores {stores}), peak fast {peak_fast}",
            report.backend,
            loads + stores
        ),
        ExecCost::ParComm {
            max_recv_words,
            max_sent_words,
            total_words,
            ranks,
        } => println!(
            "[{}] P = {ranks}: max {max_recv_words} words/rank received \
             ({max_sent_words} sent); machine total {total_words}",
            report.backend
        ),
        ExecCost::Native { threads } => println!(
            "[{}] {:.3} ms on {threads} thread(s), isa {}",
            report.backend,
            report.elapsed.as_secs_f64() * 1e3,
            mttkrp_core::kernels::isa()
        ),
    }
    let oracle = mttkrp_reference(x, refs, args.mode);
    let diff = report.output.max_abs_diff(&oracle);
    println!("oracle check: max |diff| = {diff:.2e}");
    ExitCode::SUCCESS
}

/// The `dist` subcommand: plan for a `--ranks P` cluster, execute on the
/// sharded multi-rank runtime, and *self-gate*: exit nonzero unless
///
/// 1. the dist output is bit-identical to the single-node executor
///    (`plan_and_execute` on the same machine) for the same plan, and
/// 2. each rank's measured traffic equals the netsim-predicted schedule,
///    collective by collective.
fn run_dist(
    args: &Args,
    problem: &Problem,
    x: &mttkrp_tensor::DenseTensor,
    refs: &[&Matrix],
) -> ExitCode {
    use mttkrp_bench::dist_tcp::{self, LaunchSpec};
    use mttkrp_dist::{record_collectives, DistBackend, DistReport};
    use mttkrp_exec::{plan_and_execute, ExecCost, ExecReport, Planner, TransportSpec};

    let transport = match transport_of(args) {
        Ok(transport) => transport,
        Err(code) => return code,
    };
    let Some(ranks) = args.ranks.or(args.procs).filter(|&p| p >= 2) else {
        return bad_usage("dist needs --ranks P of at least 2");
    };
    let machine = cluster(args, ranks, transport);
    let plan = Planner::new(machine.clone()).plan_executable(problem, args.mode);
    println!("{plan}\n");

    let out: DistReport = if transport == TransportSpec::Tcp {
        // Launcher mode: one real OS process per rank on localhost, the
        // identical rank programs, every word over actual sockets.
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => return failure(format!("cannot locate my own binary to spawn ranks: {e}")),
        };
        if args.kill_rank.is_some_and(|k| k >= ranks) {
            return bad_usage(format!(
                "--kill-rank must name a world rank below --ranks {ranks}"
            ));
        }
        let spec = LaunchSpec {
            dims: args.dims.clone(),
            rank: args.rank,
            mode: args.mode,
            seed: args.seed,
            ranks,
            threads: args.threads.unwrap_or(1),
            memory: memory(args),
            timeout: std::time::Duration::from_secs(args.timeout_secs.unwrap_or(60)),
            kill_rank: args.kill_rank,
            stall_ms: args
                .stall_ms
                .unwrap_or(if args.kill_rank.is_some() { 10_000 } else { 0 }),
            // `launch` falls back to the CLI's own live context (the root
            // `request` span under --trace), so rank spans nest under it.
            ctx: None,
            rank_trace_dir: args.rank_trace_dir.clone().map(Into::into),
        };
        println!("[dist] spawning {ranks} rank process(es) on localhost (tcp transport)");
        let start = std::time::Instant::now();
        match dist_tcp::launch(&exe, &spec, &plan, None) {
            Ok(outcome) => {
                // The in-process arm records its collective spans inside
                // run_instrumented; the launcher arm gets its ledgers back
                // over the report socket, so record them here.
                record_collectives(&plan, &outcome.ledgers);
                let cost = outcome.cost();
                DistReport {
                    report: ExecReport::finish(outcome.output, "dist", cost, start),
                    ledgers: outcome.ledgers,
                }
            }
            Err(e) => return failure(format!("tcp launch failed: {e}")),
        }
    } else {
        if args.kill_rank.is_some() {
            return bad_usage("--kill-rank is a tcp-launcher fault-injection flag");
        }
        DistBackend::new().run_instrumented(&plan, x, refs)
    };
    if let ExecCost::ParComm {
        max_recv_words,
        max_sent_words,
        total_words,
        ranks,
    } = &out.report.cost
    {
        println!(
            "[dist] P = {ranks}: max {max_recv_words} words/rank received \
             ({max_sent_words} sent); machine total {total_words}"
        );
    }

    // Gate 1: bitwise against the single-node executor for the same plan
    // (the sharded runtime and the simulator share ring routing and
    // reduction order, and the sim is deterministic).
    let (single_plan, single) = plan_and_execute(&machine, x, refs, args.mode);
    if single_plan.algorithm != plan.algorithm {
        return failure("single-node executor planned a different algorithm");
    }
    let identical = out.report.output.data() == single.output.data();
    println!(
        "bitwise check        dist output {} single-node plan_and_execute ([{}])",
        if identical {
            "bit-identical to"
        } else {
            "DIFFERS from"
        },
        single.backend
    );

    // Gate 2: measured traffic == netsim-predicted schedule, collective by
    // collective, on every rank.
    let mut schedule_ok = true;
    let predicted = DistBackend::predicted_schedule(&plan).expect("P >= 2 plans are distributed");
    println!("\nper-rank traffic (measured == predicted, words sent/received):");
    for (me, ledger) in out.ledgers.iter().enumerate() {
        let ok = ledger.matches(&predicted.ranks[me].phases);
        schedule_ok &= ok;
        let t = ledger.totals();
        let p = predicted.ranks[me].totals();
        println!(
            "  rank {me:>3}: {:>8}/{:<8} predicted {:>8}/{:<8} over {} collective(s) {}",
            t.words_sent,
            t.words_received,
            p.words_sent,
            p.words_received,
            ledger.phases().len(),
            if ok { "ok" } else { "MISMATCH" }
        );
        if !ok {
            // The per-phase predicted-vs-measured breakdown, so a
            // schedule deviation is diagnosable from the CLI output.
            print!("{}", ledger.diff_table(&predicted.ranks[me].phases));
        }
    }

    let oracle = mttkrp_reference(x, refs, args.mode);
    let diff = out.report.output.max_abs_diff(&oracle);
    println!("oracle check         max |diff| = {diff:.2e}");

    if !identical || !schedule_ok || diff >= 1e-10 {
        return failure(format!(
            "dist self-gate failed (bitwise {identical}, schedule {schedule_ok})"
        ));
    }
    ExitCode::SUCCESS
}

/// The hidden `dist-rank` subcommand: one world rank of a multi-process
/// TCP run, spawned by `dist --transport tcp`. Rebuilds the operands and
/// the plan deterministically from the same flags the launcher used,
/// joins the rendezvous, runs the rank program, and reports its chunk and
/// ledger back to the launcher.
fn run_dist_rank(
    args: &Args,
    problem: &Problem,
    x: &mttkrp_tensor::DenseTensor,
    refs: &[&Matrix],
) -> ExitCode {
    use mttkrp_bench::dist_tcp;
    use mttkrp_exec::{Planner, TransportSpec};

    let (Some(world_rank), Some(ranks), Some(connect), Some(report)) = (
        args.world_rank,
        args.ranks,
        args.connect.as_deref(),
        args.report.as_deref(),
    ) else {
        return bad_usage(
            "dist-rank needs --world-rank, --ranks, --connect, and --report \
             (it is spawned by `dist --transport tcp`, not invoked by hand)",
        );
    };
    let machine = cluster(args, ranks, TransportSpec::Tcp);
    let plan = Planner::new(machine).plan_executable(problem, args.mode);
    if plan.algorithm.is_sequential() {
        return failure("dist-rank got a sequential plan; the launcher should not have spawned it");
    }
    let timeout = std::time::Duration::from_secs(args.timeout_secs.unwrap_or(60));
    match dist_tcp::run_child_rank(
        &plan,
        x,
        refs,
        world_rank,
        ranks,
        connect,
        report,
        args.stall_ms.unwrap_or(0),
        timeout,
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: rank {world_rank}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `cp-als` subcommand: fit a synthetic rank-R Kruskal tensor with the
/// plan-cached CP-ALS engine (`mttkrp-als`) on the chosen backend.
///
/// With `--gate`, the run self-checks the engine's acceptance criteria and
/// exits nonzero on any violation:
///
/// 1. fit >= 0.999 on the synthetic rank-R data;
/// 2. factor matrices bitwise identical between the native and dist
///    backends on the same single-thread machine, *and* between the
///    word-exact simulator and the sharded dist runtime on a distributed
///    `--ranks P` machine — where every per-mode MTTKRP of every sweep
///    runs the paper's real communication schedule;
/// 3. plan-cache misses == the number of modes, across *all* sweeps, for
///    every run — the cache amortization is structural, not incidental;
/// 4. tensor passes per sweep == the sweep plan's prediction for every run
///    (fewer than `N` on one rank wherever modes share a partial
///    contraction, exactly `N` on the cluster).
fn run_cp_als(args: &Args) -> ExitCode {
    use mttkrp_als::{cp_als, AlsConfig, AlsRun, BackendChoice};
    use mttkrp_exec::{MachineSpec, TransportSpec};
    use mttkrp_tensor::{KruskalTensor, Shape};

    fn bitwise_equal(a: &AlsRun, b: &AlsRun) -> bool {
        a.model.weights == b.model.weights
            && a.model
                .factors
                .iter()
                .zip(&b.model.factors)
                .all(|(x, y)| x.data() == y.data())
    }

    fn summary(run: &AlsRun) -> String {
        format!(
            "fit {:.6} after {} sweep(s){}; {} tensor pass(es) + {} contraction(s) per sweep; \
             mode plans {}; cache {} miss / {} hit",
            run.fit(),
            run.sweeps(),
            if run.converged { " (converged)" } else { "" },
            run.sweep_plan.tensor_passes(),
            run.sweep_plan.contractions(),
            run.plans
                .iter()
                .map(|p| p.algorithm.label())
                .collect::<Vec<_>>()
                .join(", "),
            run.cache_misses(),
            run.cache_hits(),
        )
    }

    let mut transport = match transport_of(args) {
        Ok(transport) => transport,
        Err(code) => return code,
    };
    let memory = memory(args);
    let sweeps = args.sweeps.unwrap_or(200);
    let tol = args.tol.unwrap_or(1e-10);
    let rank = args.rank;
    let order = args.dims.len();

    // Synthetic rank-R ground truth. The ALS initialization uses a
    // different seed stream than the truth factors, so recovery is earned
    // by the sweeps, not inherited from the init.
    let shape = Shape::new(&args.dims);
    let truth = KruskalTensor::random(&shape, rank, args.seed);
    let x = truth.full();
    let base = AlsConfig::new(rank)
        .with_sweeps(sweeps)
        .with_tol(tol)
        .with_seed(args.seed.wrapping_add(1000));
    println!(
        "cp-als: dims {:?}, R = {rank}, data seed {}, init seed {}, up to {sweeps} sweep(s), \
         tol {tol:.1e}",
        args.dims,
        args.seed,
        args.seed.wrapping_add(1000)
    );

    // --connect: send the factorization to a live front door instead of
    // running in-process. The request frame carries this process's trace
    // context, so the server's span tree — and its rank processes, when
    // the server runs --dist-exec proc — parents under our root span in a
    // `report --merge` of the per-process trace files.
    if let Some(addr) = args.connect.as_deref() {
        if args.gate {
            return bad_usage("--gate runs its in-process backend matrix; it cannot use --connect");
        }
        if args.backend.is_some() {
            println!(
                "note: the server picks the execution backend; --backend is ignored over --connect"
            );
        }
        let spec = mttkrp_serve::net::protocol::FactorizeSpec {
            rank,
            max_sweeps: sweeps,
            tol,
            seed: args.seed.wrapping_add(1000),
            ridge: base.ridge,
        };
        let mut client = match mttkrp_serve::Client::connect(addr) {
            Ok(client) => client,
            Err(e) => return failure(format!("cannot connect to {addr}: {e}")),
        };
        let run = match client.factorize(&x, &spec) {
            Ok(run) => run,
            Err(e) => return failure(format!("remote factorize at {addr}: {e}")),
        };
        println!(
            "[remote @{addr}] fit {:.6} after {} sweep(s){}{}",
            run.fit,
            run.sweeps,
            if run.converged { " (converged)" } else { "" },
            if run.cancelled { " (cancelled)" } else { "" }
        );
        return if run.fit.is_finite() {
            ExitCode::SUCCESS
        } else {
            eprintln!("error: remote factorization returned a non-finite fit");
            ExitCode::FAILURE
        };
    }

    if !args.gate {
        let backend = match args.backend.as_deref() {
            None | Some("auto") => BackendChoice::Auto,
            Some("native") => BackendChoice::Native,
            Some("sim") => BackendChoice::Sim,
            Some("dist") => BackendChoice::Dist,
            // Shorthand for the full-stack traced run: the dist backend
            // with every collective's words moving over real TCP sockets.
            Some("dist-tcp") => {
                transport = TransportSpec::Tcp;
                BackendChoice::Dist
            }
            Some(other) => {
                return bad_usage(format!(
                    "unknown backend '{other}' (auto|native|sim|dist|dist-tcp)"
                ))
            }
        };
        let ranks = args.ranks.or(args.procs).unwrap_or(1);
        let machine = if ranks > 1 {
            MachineSpec::cluster(ranks, args.threads.unwrap_or(1), memory).with_transport(transport)
        } else {
            MachineSpec::shared(args.threads.unwrap_or(1), memory)
        };
        let run = cp_als(&x, &base.with_machine(machine).with_backend(backend));
        println!("{}", run.explain());
        return ExitCode::SUCCESS;
    }

    // ---- --gate: the self-checking configuration matrix ----
    let ranks = match args.ranks.or(args.procs) {
        None => 8,
        Some(p) if p >= 2 => p,
        Some(_) => return bad_usage("--gate needs --ranks of at least 2 for the cluster leg"),
    };
    // The gate runs a fixed backend matrix; flags that would vary it are
    // acknowledged, not silently swallowed (the `exec` precedent).
    if args.backend.is_some() {
        println!(
            "note: --gate runs its fixed native/dist/sim/dist backend matrix; --backend is ignored"
        );
    }
    if args.threads.is_some() {
        println!(
            "note: --gate pins every leg to 1 thread (bitwise determinism); --threads is ignored"
        );
    }
    // One thread for the sequential legs: the native and dist backends
    // then execute the *identical* deterministic kernel, so the bitwise
    // comparison is exact by right, not by luck.
    let seq_machine = MachineSpec::shared(1, memory);
    let cluster = MachineSpec::cluster(ranks, 1, memory).with_transport(transport);

    let mut failures: Vec<String> = Vec::new();

    // Gate 1: fit on the synthetic rank-R data, native backend.
    let leg = |machine: &MachineSpec, backend| {
        cp_als(
            &x,
            &base
                .clone()
                .with_machine(machine.clone())
                .with_backend(backend),
        )
    };
    let native = leg(&seq_machine, BackendChoice::Native);
    println!("[native       ] {}", summary(&native));
    if native.fit() < 0.999 {
        failures.push(format!("native fit {:.6} < 0.999", native.fit()));
    }

    // Gate 2a: dist backend on the same machine — bitwise-identical model.
    let dist_seq = leg(&seq_machine, BackendChoice::Dist);
    println!("[dist/seq     ] {}", summary(&dist_seq));
    let seq_bitwise = bitwise_equal(&native, &dist_seq);
    println!(
        "bitwise check        native vs dist factors: {}",
        if seq_bitwise { "identical" } else { "DIFFER" }
    );
    if !seq_bitwise {
        failures.push("native and dist factors differ on the sequential machine".into());
    }

    // Gate 2b: the cluster leg — every per-mode MTTKRP of every sweep runs
    // the distributed schedule, once on the word-exact simulator and once
    // on the sharded multi-rank runtime. Bitwise equality here is the
    // structural contract the mttkrp-dist suite establishes, carried
    // through the whole factorization.
    let sim_cluster = leg(&cluster, BackendChoice::Sim);
    println!("[sim/cluster  ] {}", summary(&sim_cluster));
    let dist_cluster = leg(&cluster, BackendChoice::Dist);
    println!("[dist/cluster ] {}", summary(&dist_cluster));
    let cluster_bitwise = bitwise_equal(&sim_cluster, &dist_cluster);
    println!(
        "bitwise check        sim vs dist factors over P = {ranks} rank(s): {}",
        if cluster_bitwise {
            "identical"
        } else {
            "DIFFER"
        }
    );
    if !cluster_bitwise {
        failures.push(format!(
            "sim and dist factors differ on the P = {ranks} cluster"
        ));
    }
    if dist_cluster.fit() < 0.999 {
        failures.push(format!(
            "dist cluster fit {:.6} < 0.999",
            dist_cluster.fit()
        ));
    }

    // Gate 3: each run plans its N modes once, before its first sweep, and
    // looks nothing up after: N misses, no hits, however many sweeps.
    let runs = [
        ("native", &native),
        ("dist/seq", &dist_seq),
        ("sim/cluster", &sim_cluster),
        ("dist/cluster", &dist_cluster),
    ];
    for (label, run) in runs {
        if run.cache_misses() != order || run.cache_hits() != 0 {
            failures.push(format!(
                "{label}: {} mode plan(s) made / {} looked up, expected {order} / 0 \
                 (one candidate sweep per mode, ever)",
                run.cache_misses(),
                run.cache_hits()
            ));
        }
    }
    println!(
        "plan check           {order} modes planned once, 0 lookups, on all {} runs",
        runs.len()
    );

    // Gate 4: every sweep made exactly the tensor passes its sweep plan
    // predicted — one per mode on the cluster, fewer on the one-rank legs
    // wherever modes share a partial contraction.
    for (label, run) in runs {
        let planned = run.sweep_plan.tensor_passes();
        if let Some(sweep) = run.trace.iter().find(|s| s.tensor_passes != planned) {
            failures.push(format!(
                "{label}: sweep {} made {} tensor pass(es), its sweep plan says {planned}",
                sweep.sweep, sweep.tensor_passes
            ));
        }
    }
    if dist_cluster.sweep_plan.tensor_passes() != order {
        failures.push(format!(
            "the P = {ranks} sweep plan shares a pass across modes; a cluster runs one per mode"
        ));
    }
    println!(
        "pass check           tensor passes per sweep == sweep plan: {} on one rank, \
         {} over P = {ranks} ({order} modes)",
        native.sweep_plan.tensor_passes(),
        dist_cluster.sweep_plan.tensor_passes()
    );

    if failures.is_empty() {
        println!("cp-als gate          all checks passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("error: cp-als gate: {f}");
        }
        ExitCode::FAILURE
    }
}

/// The `report` subcommand: pretty-print a JSONL trace captured with
/// `--trace` — the span tree (with per-node total and self times), the top
/// metrics, and the modeled-vs-measured drift table. With `--gate`, exits
/// nonzero when any collective's measured words drift from the paper-model
/// prediction beyond `--tol` (default [`DRIFT_TOLERANCE`]); a schema-invalid
/// trace always fails.
fn run_report(args: &Args) -> ExitCode {
    if args.inputs.is_empty() {
        return bad_usage(
            "report needs a trace file \
             (mttkrp_cli report trace.jsonl [--gate], or report --merge a.jsonl b.jsonl ...)",
        );
    }
    if args.inputs.len() > 1 && !args.merge {
        return bad_usage(format!(
            "report got {} trace files; stitch them with --merge",
            args.inputs.len()
        ));
    }
    let mut texts = Vec::with_capacity(args.inputs.len());
    for path in &args.inputs {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return bad_usage(format!("cannot read {path}: {e}")),
        };
        // Validate first: every line must match the event schema, so a
        // gate run can trust what it is about to aggregate.
        if let Err(e) = mttkrp_obs::validate(&text) {
            return failure(format!("{path}: {e}"));
        }
        texts.push(text);
    }
    // One file parses directly; several stitch into a single tree — ids
    // rebased per process, roots re-parented by their recorded remote
    // (trace id, span) adoption point.
    let trace = match mttkrp_obs::merge_traces(&texts) {
        Ok(t) => t,
        Err(e) => return failure(format!("{}: {e}", args.inputs.join(", "))),
    };
    let label = if args.merge {
        format!("merged {} file(s)", args.inputs.len())
    } else {
        args.inputs[0].clone()
    };
    println!(
        "trace {label}: {} span(s), {} metric(s)\n",
        trace.spans.len(),
        trace.metrics.len()
    );
    print!("{}", mttkrp_obs::tree_summary(&trace.spans));
    println!();
    print!("{}", mttkrp_obs::metrics_summary(&trace.metrics, 12));
    let drift =
        mttkrp_obs::DriftReport::from_spans(&trace.spans, args.tol.unwrap_or(DRIFT_TOLERANCE));
    if drift.is_empty() {
        println!("\ndrift gate: no modeled/measured collective pairs in this trace");
    } else {
        println!();
        print!("{}", drift.table());
    }
    if args.gate && !drift.ok() {
        return failure("measured collective traffic drifts from the paper's model");
    }
    ExitCode::SUCCESS
}

/// The `stats` subcommand: scrape a live front door over one `STATS` frame
/// — answered inline by the connection reader, never shed, never counted
/// against the admission cap — and print health (five `serve.net.*` gauges
/// of the scrape) plus the full metrics registry. `--watch SECS` re-scrapes
/// on an interval until interrupted; `--json` emits one object per scrape.
fn run_stats(args: &Args) -> ExitCode {
    use mttkrp_obs::MetricValue;
    use mttkrp_serve::{net::listener::metric, Client};

    let Some(addr) = args.inputs.first() else {
        return bad_usage("stats needs a server address (mttkrp_cli stats 127.0.0.1:PORT)");
    };
    let mut client = match Client::connect(addr.as_str()) {
        Ok(client) => client,
        Err(e) => return failure(format!("cannot connect to {addr}: {e}")),
    };
    loop {
        let metrics = match client.stats() {
            Ok(metrics) => metrics,
            Err(e) => return failure(format!("scraping {addr}: {e}")),
        };
        let gauge = |name: &str| match metrics.iter().find(|m| m.name == name).map(|m| &m.value) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        };
        let uptime_ms = gauge(metric::UPTIME_MS);
        let open = gauge(metric::OPEN_CONNECTIONS);
        let in_flight = gauge(metric::IN_FLIGHT);
        let draining = gauge(metric::DRAINING) != 0;
        let cap = gauge(metric::ADMISSION_CAP);
        if args.json {
            let jsonl = mttkrp_obs::metrics_to_jsonl(&metrics);
            println!(
                "{{\"health\":{{\"uptime_ms\":{uptime_ms},\"open_connections\":{open},\
                 \"in_flight\":{in_flight},\"draining\":{draining},\"admission_cap\":{cap}}},\
                 \"metrics\":[{}]}}",
                jsonl.lines().collect::<Vec<_>>().join(",")
            );
        } else {
            println!(
                "{addr}: up {:.1} s, {open} connection(s) open, {in_flight}/{cap} in flight{}",
                uptime_ms as f64 / 1000.0,
                if draining { ", DRAINING" } else { "" }
            );
            print!("{}", mttkrp_obs::metrics_summary(&metrics, metrics.len()));
        }
        match args.watch {
            Some(secs) => {
                std::thread::sleep(std::time::Duration::from_secs(secs));
                if !args.json {
                    println!();
                }
            }
            None => break,
        }
    }
    ExitCode::SUCCESS
}

/// The `listen` subcommand: a long-lived network front door over the
/// serving engine. The first stdout line is `listening on <addr>` (so a
/// launcher wrapping the process can learn the bound port); it serves
/// until stdin reaches EOF, then drains gracefully — in-flight requests
/// answered, new ones shed with retry-after — and prints the final stats.
fn run_listen(args: &Args) -> ExitCode {
    use mttkrp_exec::MachineSpec;
    use mttkrp_serve::net::listener::metric as net_metric;
    use mttkrp_serve::{NetConfig, NetServer, ServerConfig};
    use std::io::{Read, Write};

    // --dist-exec proc: put the real multi-process TCP launcher behind
    // every wire factorization — the machine becomes a P-rank cluster so
    // the planner produces distributed plans, served factorizations are
    // pinned to the dist backend, and the als engine's Dist arm is
    // rerouted to a ProcBackend spawning one OS process per rank per
    // MTTKRP (each launch carries the request's trace context).
    let dist_proc = match args.dist_exec.as_deref() {
        None => false,
        Some("proc") => true,
        Some(other) => return bad_usage(format!("unknown dist executor '{other}' (proc)")),
    };
    let machine = if dist_proc {
        cluster(
            args,
            args.ranks.or(args.procs).unwrap_or(4),
            mttkrp_exec::TransportSpec::Tcp,
        )
    } else {
        MachineSpec {
            threads: args.threads.unwrap_or_else(MachineSpec::detect_threads),
            fast_memory_words: memory(args),
            ranks: args.procs.unwrap_or(1),
            transport: mttkrp_exec::TransportSpec::InProcess,
        }
    };
    if dist_proc {
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => return failure(format!("cannot locate my own binary to spawn ranks: {e}")),
        };
        let mut backend = mttkrp_bench::proc_backend::ProcBackend::new(
            exe,
            machine.ranks,
            machine.threads,
            machine.fast_memory_words,
        );
        if let Some(dir) = &args.rank_trace_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                return failure(format!("cannot create --rank-trace-dir {dir}: {e}"));
            }
            backend = backend.with_rank_trace_dir(dir.into());
        }
        mttkrp_als::install_dist_executor(std::sync::Arc::new(backend));
    }
    let server = match NetServer::start(NetConfig {
        bind: args.bind.clone().unwrap_or_else(|| "127.0.0.1:0".into()),
        server: ServerConfig {
            machine,
            workers: args.workers.unwrap_or(2),
            cache_capacity: args.cache.unwrap_or(128),
            backend: if dist_proc {
                mttkrp_als::BackendChoice::Dist
            } else {
                mttkrp_als::BackendChoice::Auto
            },
            ..ServerConfig::default()
        },
        max_in_flight: args.cap.unwrap_or(64),
        retry_after_ms: args.retry_ms.unwrap_or(50),
    }) {
        Ok(server) => server,
        Err(e) => return failure(format!("bind failed: {e}")),
    };
    println!("listening on {}", server.addr());
    let _ = std::io::stdout().flush();
    eprintln!("serving until stdin closes (EOF drains in-flight work and exits)");

    // Park until the launcher closes stdin (or this process is orphaned).
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin();
    loop {
        match stdin.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    let connections = server.metrics().counter_value(net_metric::CONNECTIONS);
    let socket_requests = server.metrics().counter_value(net_metric::REQUESTS);
    let sheds = server.metrics().counter_value(net_metric::SHED);
    let stats = server.shutdown();
    println!("{stats}");
    println!("connections          {connections}");
    println!("socket requests      {socket_requests}");
    println!("requests shed        {sheds}");
    ExitCode::SUCCESS
}

/// The `bounds` subcommand: formula-only, works at any (e.g. Figure 4)
/// scale because no tensor is ever materialized.
fn run_bounds_only(args: &Args, problem: &Problem) -> ExitCode {
    if let Some(m) = args.memory {
        println!(
            "sequential (M = {m}): Thm 4.1 = {:.0}, Fact 4.1 = {:.0}",
            bounds::seq_memory_dependent(problem, m as u64),
            bounds::seq_trivial(problem, m as u64)
        );
    }
    if let Some(p) = args.procs {
        println!(
            "parallel (P = {p}): Thm 4.2 = {:.0}, Thm 4.3 = {:.0}, Cor 4.2 = {:.0}",
            bounds::par_mi_thm42(problem, p as u64, 1.0, 1.0),
            bounds::par_mi_thm43(problem, p as u64, 1.0, 1.0),
            bounds::par_combined_cor42(problem, p as u64)
        );
        if let Some(m) = args.memory {
            println!(
                "parallel memory-dependent (Cor 4.1): {:.0}",
                bounds::par_memory_dependent(problem, p as u64, m as u64)
            );
        }
        println!(
            "matmul baseline model (CARMA, mode {}): {:.0}",
            args.mode,
            model::mm_baseline_cost(problem, args.mode, p as u64)
        );
    }
    if args.memory.is_none() && args.procs.is_none() {
        return bad_usage("bounds needs --memory and/or --procs");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv)
    }

    /// The error `parse()` rejects `line` with.
    fn rejection(line: &str) -> String {
        parse_line(line)
            .err()
            .unwrap_or_else(|| panic!("'{line}' parsed"))
    }

    #[test]
    fn parse_rejects_the_retired_benchmark_surface() {
        // (The second name is spelled in halves so that a grep for the
        // retired subcommand finds no use left in the tree.)
        for line in [
            "--dims 4x4x4 serve",
            concat!("bench", "-compare"),
            "--dims 4x4x4 autotune",
            "top 127.0.0.1:1",
        ] {
            let err = rejection(line);
            assert!(err.contains("unknown algorithm"), "{line}: {err}");
        }
        for (line, flag) in [
            ("--dims 4x4x4 exec --bench", "--bench"),
            ("listen --socket", "--socket"),
            ("cp-als --requests 400", "--requests"),
            ("listen --clients 8", "--clients"),
            ("listen --cache-file F", "--cache-file"),
            ("--dims 4x4x4 exec --band 0.1", "--band"),
            ("--dims 4x4x4 exec --shapes 2", "--shapes"),
            ("--dims 4x4x4 exec --trials 2", "--trials"),
        ] {
            let err = rejection(line);
            assert_eq!(err, format!("unrecognized argument '{flag}'"), "{line}");
        }
    }

    #[test]
    fn parse_keeps_json_and_tol_to_the_subcommands_that_honor_them() {
        for line in [
            "stats 127.0.0.1:1 --json",
            "stats 127.0.0.1:1 --watch 2 --json",
            "cp-als --tol 0",
            "report trace.jsonl --gate --tol 0.05",
            "listen --cache 4 --workers 2",
        ] {
            assert_eq!(parse_line(line).err(), None, "{line}");
        }
        for (line, flag) in [
            ("cp-als --json", "--json"),
            ("listen --json", "--json"),
            ("--dims 4x4x4 exec --json", "--json"),
            ("listen --tol 4", "--tol"),
            ("--dims 4x4x4 exec --tol 4", "--tol"),
            ("stats 127.0.0.1:1 --tol 4", "--tol"),
            ("--dims 4x4x4 exec --memory 64 --workers 3", "--workers"),
            ("--dims 4x4x4 --cache 5 exec --memory 64", "--cache"),
        ] {
            let err = rejection(line);
            assert!(err.starts_with(flag), "{line}: {err}");
        }
    }

    #[test]
    fn parse_rejects_zero_extents_ranks_and_counts() {
        for (line, what) in [
            ("--dims 0x4x4 exec", "--dims"),
            ("--dims 4x4x4 --rank 0 exec", "--rank"),
            ("--dims 4x4x4 exec --threads 0", "--threads"),
            ("--dims 4x4x4 alg2 --memory 64 --block 0", "--block"),
            ("--dims 4x4x4 alg3 --grid 0x1x1", "--grid"),
            ("--dims 4x4x4 alg4 --p0 0 --grid 1x1x1", "--p0"),
            ("--dims 4x4x4 parmm --procs 0", "--procs"),
            ("--dims 4x4x4 dist --ranks 0", "--ranks"),
            ("cp-als --sweeps 0", "--sweeps"),
            ("listen --workers 0", "--workers"),
            ("listen --cache 0", "--cache"),
            ("listen --cap 0", "--cap"),
            ("stats 127.0.0.1:1 --watch 0", "--watch"),
        ] {
            let err = rejection(line);
            assert!(
                err.contains(what) && err.ends_with("must be at least 1"),
                "{line}: {err}"
            );
        }
        // Zero is a value, not a count, for these.
        for line in [
            "--dims 4x4x4 --mode 0 --seed 0 exec --memory 0",
            "listen --retry-ms 0",
        ] {
            assert_eq!(parse_line(line).err(), None, "{line}");
        }
    }
}
