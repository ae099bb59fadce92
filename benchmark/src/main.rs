//! The layered benchmark of the MTTKRP stack. See `benchmark/README.md`.
//!
//! `--workload W` measures one workload in this process and prints one result
//! object as its last line (the form `BENCHMARK.json` promises the driver).
//! Without `--workload` the program runs the suite: itself once per workload,
//! untraced and traced, each in a process of its own so that peak memory
//! belongs to one workload.

mod json;
mod machine;
mod stats;
mod trace;
mod workloads;

use stats::{median, quartiles, quiet_sum, spread, summarize};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{self_times, SelfTimes, Tracer};
use workloads::{Checker, Layers, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` at which a workload runs
/// its nominal sample count (sized to take about this long on a quiet box).
const RUN_SECONDS: f64 = 9.0;
/// Fewest samples behind a gated timing, whatever `--seconds` says.
const MIN_SAMPLES: usize = 100;
/// Set-ups per run; `setup_s` is their quiet-box time.
const SETUP_REPS: usize = 15;
/// Blocks an untraced run alternates set-ups and samples in.
const SETUP_BLOCKS: usize = 3;
/// Share of the sample count a traced run takes, once plain and once traced.
const TRACED_SHARE: f64 = 0.3;
/// `--quick` divides every count by this.
const QUICK_DIVISOR: usize = 20;

/// End-to-end metrics: name, unit, which way is better, and the share of the
/// parent's median by which a change may worsen them.
const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("op_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
];

/// Per-layer metrics, printed by every traced run: name, unit, which way is
/// better. A workload whose path does not touch a layer reports 0 for it.
const PER_LAYER: [(&str, &str, &str); 82] = [
    // The box, measured in the same run.
    ("probe.fma_gflops", "GF/s", "higher"),
    ("probe.stream_gbs", "GB/s", "higher"),
    // exec: planner, plan cache, native kernel, roofline.
    ("exec.plan_us", "us", "lower"),
    ("exec.plan_cached_us", "us", "lower"),
    ("exec.kernel_ms.m0", "ms", "lower"),
    ("exec.kernel_ms.m1", "ms", "lower"),
    ("exec.kernel_ms.m2", "ms", "lower"),
    ("exec.kernel_ms.m3", "ms", "lower"),
    ("exec.execute_over_kernel", "ratio", "lower"),
    ("exec.mode_asymmetry", "ratio", "lower"),
    ("exec.gflops", "GF/s", "higher"),
    ("exec.flop_per_byte", "flop/B", "higher"),
    ("exec.tensor_gbs", "GB/s", "higher"),
    ("exec.frac_fma_peak", "ratio", "higher"),
    ("exec.frac_stream", "ratio", "higher"),
    ("exec.roofline_frac", "ratio", "higher"),
    ("exec.big_round_ms", "ms", "lower"),
    ("exec.big_round_ms.p50", "ms", "lower"),
    ("exec.big_round_ms.n", "count", "higher"),
    ("exec.big_spread", "ratio", "lower"),
    ("exec.big_over_small", "ratio", "lower"),
    ("exec.big_tile", "count", "higher"),
    ("exec.big_tiles", "count", "lower"),
    ("exec.big_plan_words", "words", "lower"),
    ("exec.sim_words", "words", "lower"),
    ("exec.sim_words_over_bound", "ratio", "lower"),
    ("exec.par_speedup", "ratio", "higher"),
    ("exec.plan_cache.hits", "count", "higher"),
    ("exec.plan_cache.misses", "count", "lower"),
    ("exec.plan_cache.hit_rate", "ratio", "higher"),
    // als.
    ("als.sweep_over_kernels", "ratio", "lower"),
    ("als.kernel_share", "ratio", "higher"),
    ("als.plan_share", "ratio", "lower"),
    ("als.solve_ms", "ms", "lower"),
    ("als.first_sweep_ms", "ms", "lower"),
    ("als.fit", "ratio", "higher"),
    ("als.sweeps_to_fit", "count", "lower"),
    // serve and the wire under it.
    ("serve.proto.encode_req_us", "us", "lower"),
    ("serve.proto.decode_req_us", "us", "lower"),
    ("serve.proto.encode_resp_us", "us", "lower"),
    ("serve.proto.decode_resp_us", "us", "lower"),
    ("wire.write_us", "us", "lower"),
    ("wire.read_us", "us", "lower"),
    ("serve.inproc_call_us", "us", "lower"),
    ("serve.inproc_over_execute", "ratio", "lower"),
    ("serve.socket_over_inproc", "ratio", "lower"),
    ("serve.queue_us", "us", "lower"),
    ("serve.exec_us", "us", "lower"),
    ("serve.unaccounted_us", "us", "lower"),
    ("serve.mean_batch", "count", "higher"),
    ("serve.largest_batch", "count", "higher"),
    ("serve.bytes_in_per_req", "B", "lower"),
    ("serve.bytes_out_per_req", "B", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.req_ms_p99", "ms", "lower"),
    ("serve.req_per_s", "1/s", "higher"),
    // dist.
    ("dist.shard_ms", "ms", "lower"),
    ("dist.rank_over_native", "ratio", "lower"),
    ("dist.comm_words", "words", "lower"),
    ("dist.words_sent_max", "words", "lower"),
    ("dist.words_recv_max", "words", "lower"),
    ("dist.msgs_max", "count", "lower"),
    ("dist.words_total", "words", "lower"),
    ("dist.words_over_bound", "ratio", "lower"),
    ("dist.schedule_match", "bool", "higher"),
    ("dist.round_ms_p8", "ms", "lower"),
    // obs.
    ("obs.capture_overhead", "ratio", "lower"),
    // Self time by layer, as a share of the operations' wall time.
    ("self.kernel", "ratio", "higher"),
    ("self.plan", "ratio", "lower"),
    ("self.proto", "ratio", "lower"),
    ("self.wire", "ratio", "lower"),
    ("self.serve", "ratio", "lower"),
    ("self.dist", "ratio", "lower"),
    ("self.als", "ratio", "lower"),
    ("self.root", "ratio", "lower"),
    // The benchmark itself: companions of `op_ms`, and what tracing costs.
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.hi", "ms", "lower"),
    ("op_ms.n", "count", "higher"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.trace_overcovered", "count", "lower"),
    ("bench.max_rel_err", "ratio", "lower"),
    ("bench.setup_first_s", "s", "lower"),
];

/// Span-name prefix behind each `self.*` metric.
const SELF_SHARES: [(&str, &str); 8] = [
    ("self.kernel", "exec.kernel"),
    ("self.plan", "exec.plan"),
    ("self.proto", "serve.proto."),
    ("self.wire", "wire."),
    ("self.serve", "serve.inproc_call"),
    ("self.dist", "dist."),
    ("self.als", "als."),
    ("self.root", "op."),
];

/// Samples a workload takes at `--seconds = RUN_SECONDS`; `None` for an
/// unknown name.
fn nominal_samples(workload: &str) -> Option<usize> {
    Some(match workload {
        "cube3" => 1500,
        "lowrank4" => 2250,
        "als4" => 1500,
        "dist-grid" => 750,
        "serve-socket" => 225,
        "serve-burst" => 7500,
        _ => return None,
    })
}

/// Sets a workload up from `seed`; `None` for an unknown name.
fn build(workload: &str, seed: u64) -> Option<Box<dyn Workload>> {
    use workloads::{als::Als4, burst::Burst, dist::Dist, kernel::Kernel, socket::Socket};
    Some(match workload {
        "cube3" => Box::new(Kernel::cube3(seed)),
        "lowrank4" => Box::new(Kernel::lowrank4(seed)),
        "als4" => Box::new(Als4::new(seed)),
        "serve-socket" => Box::new(Socket::new(seed)),
        "serve-burst" => Box::new(Burst::new(seed)),
        "dist-grid" => Box::new(Dist::new(seed)),
        _ => return None,
    })
}

/// Command-line options.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
    corrupt_reference: bool,
}

const USAGE: &str = "usage: run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1] \
[--repeat K] [--quick] [--corrupt-reference]
  --workload W         measure one workload (cube3 lowrank4 als4 serve-socket serve-burst
                       dist-grid); without it, run the suite: every workload, untraced and traced
  --seed S             seeds every operand, the ALS ground truth and the ALS start (default 1)
  --seconds T          scales the fixed sample counts; they are nominal at T = 9
  --trace 0|1          1: per-layer metrics from a traced run, spans to benchmark/out/
  --repeat K           suite only: K untraced runs per workload on seeds S..S+K-1, then a spread
                       table; exits nonzero if a spread exceeds its metric's bound
  --quick              counts / 20, for smoke tests; results are stamped \"quick\": true
  --corrupt-reference  test only: spoil one reference, to show a wrong result fails the run";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        repeat: 1,
        corrupt_reference: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.to_string()),
            "--seed" => out.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                out.seconds = v.parse().map_err(|_| bad(v))?;
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    return Err(bad(v));
                }
            }
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--repeat" => {
                let v = value()?;
                out.repeat = v.parse().ok().filter(|&k| k >= 1).ok_or_else(|| bad(v))?;
            }
            "--quick" => out.quick = true,
            "--corrupt-reference" => out.corrupt_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// The fixed sample count of a run: nominal at `RUN_SECONDS`, scaled by
/// `--seconds`, never a time box, so two commits do identical work.
fn sample_count(nominal: usize, seconds: f64, quick: bool) -> usize {
    let scaled = (nominal as f64 * seconds / RUN_SECONDS).round() as usize;
    if quick {
        (scaled / QUICK_DIVISOR).max(SETUP_BLOCKS)
    } else {
        scaled.max(MIN_SAMPLES)
    }
}

/// The `metrics` member of a result line.
fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let members: Vec<(&str, String)> = metrics
        .iter()
        .map(|&(name, unit, value)| {
            let body = [("value", json::number(value)), ("unit", json::string(unit))];
            (name, json::object(&body))
        })
        .collect();
    json::object(&members)
}

/// Where traces go: `out/` beside this package's manifest, in the checkout
/// the program was built in.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn self_time_json(workload: &str, st: &SelfTimes) -> String {
    let rows: Vec<String> = st
        .by_name
        .iter()
        .map(|(name, &(spans, self_us))| {
            json::object(&[
                ("name", json::string(name)),
                ("spans", spans.to_string()),
                ("self_us", json::number(self_us)),
                ("share", json::number(st.share(name))),
            ])
        })
        .collect();
    json::object(&[
        ("kind", json::string("self_time")),
        ("workload", json::string(workload)),
        ("root_us", json::number(st.root_us)),
        ("overcovered", st.overcovered.to_string()),
        ("orphans", st.orphans.to_string()),
        ("rows", json::array(&rows)),
    ])
}

/// Sets the workload up `reps` times, timing each set-up (construction and
/// the check of its references) into `setup_s`, and returns the last one.
/// `None` for an unknown name.
fn set_up(
    name: &str,
    args: &Args,
    reps: usize,
    check: &mut Checker,
    setup_s: &mut Vec<f64>,
) -> Option<Box<dyn Workload>> {
    let mut built = None;
    for _ in 0..reps {
        // The one before goes first: one workload's memory at a time.
        drop(built.take());
        let start = Instant::now();
        let mut workload = build(name, args.seed)?;
        if args.corrupt_reference {
            workload.corrupt_reference();
        }
        workload.verify(check);
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some(workload);
    }
    built
}

/// What a run found, ready to print.
struct Report {
    /// What one sample is.
    unit: &'static str,
    /// Words of the workload's largest operand.
    tensor_words: usize,
    /// Samples taken.
    samples: usize,
    /// The plans behind the timings, for the header.
    plans: Vec<String>,
    /// Lines between the header and the result.
    lines: Vec<String>,
    /// The result's metrics: name, unit, value.
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// The untraced run: the end-to-end metrics.
///
/// Set-ups and samples alternate in [`SETUP_BLOCKS`] blocks, so that the
/// set-ups see several moments of the run. A contended stretch on this box
/// lasts seconds and slows everything by half; fifteen set-ups in a row at
/// the start of a run sat inside one often enough to move their median by
/// 36% between two sets of ten runs. `setup_s` is the quiet-box time of the
/// fifteen, as `op_ms` is of the samples.
fn untraced(name: &str, args: &Args, samples: usize, check: &mut Checker) -> Option<Report> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut rows = Vec::with_capacity(samples);
    let mut described = None;
    for block in 0..SETUP_BLOCKS {
        let mut workload = set_up(name, args, SETUP_REPS / SETUP_BLOCKS, check, &mut setup_s)?;
        let share = samples / SETUP_BLOCKS + usize::from(block < samples % SETUP_BLOCKS);
        rows.extend(workload.run(share, check));
        described = Some((
            workload.unit(),
            workload.tensor_words(),
            workload.plans(),
            workload.companions(),
        ));
        // Dropping the workload stops and joins whatever it started.
    }
    let (unit, tensor_words, plans, found) = described?;
    let totals: Vec<f64> = rows.iter().map(|parts| parts.iter().sum()).collect();
    let whole = summarize(&totals);
    // Companions of the gated timing, over whole samples; the first set-up of
    // the process, which alone pays what is initialised once per process and
    // which the quiet-box time of the fifteen always discards; the two
    // correctness figures the result line carries only as counts; and what
    // the workload counted or asserted beside its timings.
    let mut companions = vec![
        ("kind", json::string("companions")),
        ("workload", json::string(name)),
        ("op_ms.q02", json::number(whole.quiet)),
        ("op_ms.q10", json::number(whole.q10)),
        ("op_ms.p50", json::number(whole.p50)),
        ("op_ms.hi", json::number(whole.hi)),
        ("op_ms.n", whole.n.to_string()),
        ("setup_s.p50", json::number(median(&setup_s))),
        ("setup_first_s", json::number(setup_s[0])),
        (
            "ops_failed_ratio",
            json::number(check.failed as f64 / check.attempted as f64),
        ),
        ("max_rel_err", json::number(check.max_rel_err)),
    ];
    companions.extend(found.iter().map(|&(k, v)| (k, json::number(v))));
    let companions = json::object(&companions);
    let values = [
        quiet_sum(&rows),
        summarize(&setup_s).quiet,
        machine::peak_rss_mib(),
    ];
    Some(Report {
        unit,
        tensor_words,
        samples,
        plans,
        lines: vec![companions],
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), value)| (name, unit, value))
            .collect(),
    })
}

/// The traced run: the per-layer metrics, the self-time table, the spans.
fn traced(name: &str, args: &Args, samples: usize, check: &mut Checker) -> Option<Report> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = set_up(name, args, SETUP_REPS, check, &mut setup_s)?;
    let mut layers = Layers::new();
    layers.insert("bench.setup_first_s", setup_s[0]);
    layers.insert("probe.fma_gflops", machine::probe_fma_gflops());
    let stream_words = workload.tensor_words();
    layers.insert("probe.stream_gbs", machine::probe_stream_gbs(stream_words));
    let mut tracer = Tracer::new();
    let (plain, traced) = workload.run_traced(samples, check, &mut tracer, &mut layers);
    let (plain, traced) = (summarize(&plain), summarize(&traced));

    let st = self_times(tracer.spans());
    for (metric, prefix) in SELF_SHARES {
        layers.insert(metric, st.share(prefix));
    }
    // Companions of the gated timing, from the plain operations.
    layers.insert("op_ms.p50", plain.p50);
    layers.insert("op_ms.hi", plain.hi);
    layers.insert("op_ms.n", plain.n as f64);
    layers.insert("bench.trace_overhead", traced.quiet / plain.quiet - 1.0);
    layers.insert("bench.trace_overcovered", st.overcovered as f64);
    layers.insert("bench.max_rel_err", check.max_rel_err);
    if st.orphans > 0 {
        eprintln!("{} spans name a parent that does not exist", st.orphans);
        check.op(false);
    }

    let dir = out_dir();
    let path = dir.join(format!("trace-{name}.jsonl"));
    let jsonl = tracer.to_jsonl();
    for line in jsonl.lines() {
        json::checked(line.to_string());
    }
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, jsonl)) {
        eprintln!("cannot write {}: {e}", path.display());
        check.op(false);
    }
    let traced_op = json::object(&[
        ("kind", json::string("traced_op")),
        ("workload", json::string(name)),
        ("stream_probe_words", stream_words.to_string()),
        ("trace_file", json::string(&path.display().to_string())),
        ("spans", tracer.spans().len().to_string()),
        ("op_ms.q02", json::number(traced.quiet)),
        ("op_ms.q10", json::number(traced.q10)),
        ("op_ms.p50", json::number(traced.p50)),
        ("op_ms.hi", json::number(traced.hi)),
        ("op_ms.n", traced.n.to_string()),
    ]);
    for layer in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(known, _, _)| known == layer),
            "{layer} is not in the per-layer table"
        );
    }
    Some(Report {
        unit: workload.unit(),
        tensor_words: workload.tensor_words(),
        samples,
        plans: workload.plans(),
        lines: vec![self_time_json(name, &st), traced_op],
        metrics: PER_LAYER
            .iter()
            .map(|&(layer, unit, _)| (layer, unit, layers.get(layer).copied().unwrap_or(0.0)))
            .collect(),
    })
}

/// Measures one workload in this process.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let mut check = Checker::default();
    let report = nominal_samples(name).and_then(|nominal| {
        let samples = sample_count(nominal, args.seconds, args.quick);
        if args.trace {
            let share = ((samples as f64 * TRACED_SHARE).round() as usize).max(2);
            traced(name, args, share, &mut check)
        } else {
            untraced(name, args, samples, &mut check)
        }
    });
    let Some(report) = report else {
        eprintln!("no workload called {name}\n{USAGE}");
        return ExitCode::from(2);
    };

    let strings =
        |v: &[String]| json::array(&v.iter().map(|s| json::string(s)).collect::<Vec<_>>());
    let header = json::object(&[
        ("kind", json::string("header")),
        ("workload", json::string(name)),
        ("sample_unit", json::string(report.unit)),
        ("samples", report.samples.to_string()),
        ("setup_reps", SETUP_REPS.to_string()),
        ("setup_blocks", SETUP_BLOCKS.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", json::number(args.seconds)),
        ("trace", args.trace.to_string()),
        ("quick", args.quick.to_string()),
        ("kernel_threads", "1".to_string()),
        ("nproc", machine::nproc().to_string()),
        ("caches", strings(&machine::caches())),
        ("plans", strings(&report.plans)),
        (
            "tensor_mib",
            json::number(report.tensor_words as f64 * 8.0 / 1048576.0),
        ),
        ("rustc", json::string(&machine::rustc_version())),
        ("git", json::string(&machine::git_revision())),
    ]);
    println!("{}", json::checked(header));
    for line in report.lines {
        println!("{}", json::checked(line));
    }
    let mut result = vec![
        ("correct", (check.failed == 0).to_string()),
        ("attempted", check.attempted.to_string()),
        ("failed", check.failed.to_string()),
        ("metrics", metrics_json(&report.metrics)),
    ];
    if args.quick {
        result.push(("quick", "true".to_string()));
    }
    println!("{}", json::checked(json::object(&result)));
    if check.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{name}: {} of {} operations failed (worst relative error {:e})",
            check.failed, check.attempted, check.max_rel_err
        );
        ExitCode::FAILURE
    }
}

/// Runs this program on one workload in a process of its own, echoes what it
/// printed, and returns the metrics of its result line (`None` if it failed).
fn run_child(
    name: &str,
    seed: u64,
    trace: bool,
    args: &Args,
) -> Option<Vec<(String, String, f64)>> {
    let exe = std::env::current_exe().expect("path of this program");
    let mut command = Command::new(exe);
    command
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.quick {
        command.arg("--quick");
    }
    if args.corrupt_reference {
        command.arg("--corrupt-reference");
    }
    let output = command.output().expect("start a child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        eprintln!(
            "{name} (seed {seed}, trace {}) failed: {}",
            u8::from(trace),
            output.status
        );
        return None;
    }
    let result = mttkrp_obs::json::parse(stdout.lines().last()?).ok()?;
    let metrics = result.get("metrics")?.as_object()?;
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit")?.as_str()?.to_string();
            Some((name.clone(), unit, m.get("value")?.as_f64()?))
        })
        .collect()
}

/// Runs every workload, untraced (`--repeat` times, on consecutive seeds) and
/// traced, each in its own process; result lines go to stdout as the children
/// print them, the tables to stderr.
fn run_suite(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut table = String::new();
    let mut spreads = String::new();
    for (name, _) in WORKLOADS {
        let runs: Vec<_> = (0..args.repeat as u64)
            .filter_map(|k| run_child(name, args.seed.wrapping_add(k), false, args))
            .collect();
        let traced = run_child(name, args.seed, true, args);
        ok &= runs.len() == args.repeat && traced.is_some();
        // A per-layer metric that reads 0 is a layer off this workload's path.
        for (metric, unit, value) in runs.first().into_iter().chain(&traced).flatten() {
            if *value != 0.0 {
                table.push_str(&format!("{name:<13} {metric:<28} {value:>16.6} {unit}\n"));
            }
        }
        if runs.len() < 2 {
            continue;
        }
        for (metric, unit, _, bound) in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .flatten()
                .filter(|(name, _, _)| name == metric)
                .map(|(_, _, value)| *value)
                .collect();
            let (q1, q3) = quartiles(&values);
            let spread = spread(&values);
            // As the driver judges: set-up time is exempt from the spread rule.
            let within = spread <= bound || metric == "setup_s";
            ok &= within;
            spreads.push_str(&format!(
                "{name:<13} {metric:<12} median {:>12.4} {unit:<4} q1 {q1:>12.4} q3 {q3:>12.4} \
                 spread {spread:>7.4} bound {bound:<5} {}\n",
                median(&values),
                if within { "ok" } else { "EXCEEDED" },
            ));
        }
    }
    eprintln!(
        "\nworkload      metric                                  value unit (seed {})",
        args.seed
    );
    eprint!("{table}");
    if !spreads.is_empty() {
        eprintln!("\nspread over {} runs, seeds {}..", args.repeat, args.seed);
        eprint!("{spreads}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("\nsuite failed: a run failed or a spread exceeded its bound");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_obs::json::{parse, JsonValue};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "cube3",
            "--seed",
            "7",
            "--seconds",
            "9",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("cube3"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 9.0, true));
        assert!(!args.quick && !args.corrupt_reference);
        assert_eq!(args.repeat, 1);
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse_args(&strings(&["--traced"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--repeat", "0"])).is_err());
    }

    #[test]
    fn sample_counts_scale_with_seconds_and_keep_a_floor() {
        assert_eq!(sample_count(100, RUN_SECONDS, false), 100);
        assert_eq!(sample_count(100, 2.0 * RUN_SECONDS, false), 200);
        assert_eq!(sample_count(100, 1.0, false), MIN_SAMPLES);
        assert_eq!(sample_count(7500, RUN_SECONDS / 3.0, false), 2500);
        assert_eq!(sample_count(100, RUN_SECONDS, true), 5);
        assert_eq!(sample_count(100, 1.0, true), SETUP_BLOCKS);
    }

    #[test]
    fn every_workload_has_a_count_and_the_names_are_distinct() {
        for (name, why) in WORKLOADS {
            assert!(nominal_samples(name).unwrap() >= MIN_SAMPLES);
            assert!(build(name, 1).is_some());
            assert!(why.len() <= 200, "{name}: why is {} characters", why.len());
        }
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len());
        for (metric, _) in SELF_SHARES {
            assert!(PER_LAYER.iter().any(|m| m.0 == metric));
        }
    }

    #[test]
    fn result_metrics_round_trip() {
        let line = json::checked(json::object(&[
            ("correct", "true".to_string()),
            ("attempted", "1000".to_string()),
            ("failed", "0".to_string()),
            (
                "metrics",
                metrics_json(&[("op_ms", "ms", 1.203_456_789), ("setup_s", "s", 0.8127)]),
            ),
        ]));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(1000));
        let op = v.get("metrics").unwrap().get("op_ms").unwrap();
        assert_eq!(op.get("value").unwrap().as_f64(), Some(1.203_456_789));
        assert_eq!(op.get("unit").unwrap().as_str(), Some("ms"));
    }

    /// `BENCHMARK.json` at the root of the repository names exactly what this
    /// program prints.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = parse(&text).expect("BENCHMARK.json is JSON");
        let str_of = |v: &JsonValue, key: &str| v.get(key).unwrap().as_str().unwrap().to_string();
        let list = |key: &str| doc.get(key).unwrap().as_array().unwrap().to_vec();

        assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS));
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").unwrap().as_f64().unwrap();
                (
                    str_of(m, "name"),
                    str_of(m, "unit"),
                    str_of(m, "better"),
                    bound,
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.to_string(), u.to_string(), b.to_string(), bound))
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(layers, ours);
    }
}
