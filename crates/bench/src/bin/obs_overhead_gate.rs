//! CI gate for mttkrp-obs's core promise: with tracing compiled in but
//! **disabled** (the default for every run that doesn't pass `--trace`),
//! the instrumented execution path costs nothing measurable.
//!
//! Four rows, each exiting nonzero past its bound:
//!
//! - *Kernel*: the instrumented path is `execute_observed` — the
//!   span-opening, field-recording wrapper every layer routes kernels
//!   through — whose disabled branch opens no span: one relaxed atomic
//!   load, then the backend. It is timed against a raw `Backend::execute`
//!   on the acceptance configuration (64x64x64, R = 32) and may be at most
//!   `MAX_SLOWDOWN` slower.
//! - *Span*: a disabled span still feeds the always-on flight ring, so its
//!   open and close are two clock reads and one ring deposit. A batch of
//!   them is timed against a batch of bare `Instant::now()` pairs and may
//!   be at most `MAX_SPAN_OVER_CLOCK` slower: a third clock read or a
//!   costlier deposit shows here.
//! - *Counter* and *histogram*: a metric update writes only the calling
//!   thread's cells, with loads and stores and no atomic read-modify-write.
//!   A batch of `Counter::add`s and one of `Histogram::record`s are each
//!   timed against a batch of lone relaxed `fetch_add`s on one atomic and
//!   may be no slower (`MAX_METRIC_OVER_RMW`): an update that takes an RMW
//!   again, or a lock, shows here.
//!
//! Measurement follows `speedup_gate`'s best-of-`TRIALS` wall clock (best,
//! not mean, to shrug off scheduler noise on shared CI runners) with one
//! refinement: the two paths are timed *interleaved*, raw/observed pair by
//! pair, so a frequency or scheduler drift mid-run penalizes both sides
//! equally instead of whichever happened to go second. A complementary
//! allocation-exact check lives in `crates/obs/tests/zero_overhead.rs`;
//! this gate covers the wall-clock side on a real kernel.

use mttkrp_bench::setup_problem;
use mttkrp_core::Problem;
use mttkrp_exec::{execute_observed, Backend, MachineSpec, NativeBackend, Planner};
use mttkrp_obs::MetricsRegistry;
use mttkrp_tensor::Matrix;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const TRIALS: usize = 15;
/// Instrumented-but-disabled may be at most 10% slower than raw. The
/// disabled branch opens no span: its overhead is one atomic load per
/// kernel (sub-nanosecond against a millisecond-scale MTTKRP); the headroom
/// absorbs timer jitter.
const MAX_SLOWDOWN: f64 = 1.10;
/// A disabled span's open and close may cost at most twice a bare pair of
/// clock reads.
const MAX_SPAN_OVER_CLOCK: f64 = 2.0;
/// Spans (and clock-read pairs) per timed batch of the span row.
const SPANS: usize = 20_000;
/// A counter add or a histogram record may cost at most one lone relaxed
/// `fetch_add`.
const MAX_METRIC_OVER_RMW: f64 = 1.0;
/// Updates (and `fetch_add`s) per timed batch of the metric rows.
const UPDATES: u64 = 100_000;

fn timed(mut run: impl FnMut()) -> f64 {
    let start = Instant::now();
    run();
    start.elapsed().as_secs_f64()
}

/// The kernel row: best-of-`TRIALS` raw and observed kernel times, in
/// seconds.
fn kernel_row() -> (f64, f64) {
    let (x, factors) = setup_problem(&[64, 64, 64], 32, 7);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let machine = MachineSpec::shared(1, mttkrp_exec::DEFAULT_CACHE_WORDS);
    let problem = Problem::new(&[64, 64, 64], 32);
    let plan = Planner::new(machine).plan_executable(&problem, 0);
    let backend = NativeBackend::new(1, mttkrp_exec::DEFAULT_CACHE_WORDS);

    // Warm up both paths, then time them interleaved.
    std::hint::black_box(backend.execute(&plan, &x, &refs));
    std::hint::black_box(execute_observed(&backend, &plan, &x, &refs));
    let mut raw = f64::INFINITY;
    let mut observed = f64::INFINITY;
    for _ in 0..TRIALS {
        raw = raw.min(timed(|| {
            std::hint::black_box(backend.execute(&plan, &x, &refs));
        }));
        observed = observed.min(timed(|| {
            std::hint::black_box(execute_observed(&backend, &plan, &x, &refs));
        }));
    }
    (raw, observed)
}

/// The span row: best-of-`TRIALS` nanoseconds per bare pair of clock reads
/// and per disabled span open and close.
fn span_row() -> (f64, f64) {
    let pairs = || {
        for _ in 0..SPANS {
            let open = std::hint::black_box(Instant::now());
            std::hint::black_box(Instant::now() - open);
        }
    };
    let spans = || {
        for _ in 0..SPANS {
            drop(std::hint::black_box(mttkrp_obs::span("request")));
        }
    };
    pairs();
    spans();
    let mut clock = f64::INFINITY;
    let mut span = f64::INFINITY;
    for _ in 0..TRIALS {
        clock = clock.min(timed(pairs));
        span = span.min(timed(spans));
    }
    let per = |secs: f64| secs * 1e9 / SPANS as f64;
    (per(clock), per(span))
}

/// The metric rows: best-of-`TRIALS` nanoseconds per lone relaxed
/// `fetch_add`, per `Counter::add` and per `Histogram::record`.
fn metric_rows() -> (f64, f64, f64) {
    let registry = MetricsRegistry::new();
    let counter = registry.counter_handle("gate.counter");
    let histogram = registry.histogram_handle("gate.histogram");
    let cell = AtomicU64::new(0);
    let rmws = || {
        for _ in 0..UPDATES {
            black_box(&cell).fetch_add(black_box(1), Ordering::Relaxed);
        }
    };
    let adds = || {
        for _ in 0..UPDATES {
            black_box(&counter).add(black_box(1));
        }
    };
    // Values over ten log2 buckets, as a latency histogram sees them.
    let records = || {
        for v in 0..UPDATES {
            black_box(&histogram).record(black_box(v & 1023));
        }
    };
    rmws();
    adds();
    records();
    let (mut rmw, mut add, mut record) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..TRIALS {
        rmw = rmw.min(timed(rmws));
        add = add.min(timed(adds));
        record = record.min(timed(records));
    }
    assert_eq!(counter.value(), (TRIALS as u64 + 1) * UPDATES);
    let per = |secs: f64| secs * 1e9 / UPDATES as f64;
    (per(rmw), per(add), per(record))
}

fn main() -> ExitCode {
    assert!(
        !mttkrp_obs::enabled(),
        "tracing must be disabled for the overhead measurement"
    );
    let mut failed = false;

    let (raw, observed) = kernel_row();
    let ratio = observed / raw;
    println!(
        "obs_overhead_64x64x64_r32: raw {:.3} ms, observed(disabled) {:.3} ms -> ratio {ratio:.3} \
         (gate: <= {MAX_SLOWDOWN})",
        raw * 1e3,
        observed * 1e3
    );
    if ratio > MAX_SLOWDOWN {
        eprintln!(
            "error: disabled-tracing execution path is {:.1}% slower than raw (allowed {:.0}%)",
            (ratio - 1.0) * 100.0,
            (MAX_SLOWDOWN - 1.0) * 100.0
        );
        failed = true;
    }

    let (clock, span) = span_row();
    let ratio = span / clock;
    println!(
        "obs_span_scale: clock pair {clock:.1} ns, disabled span {span:.1} ns -> ratio {ratio:.2} \
         (gate: <= {MAX_SPAN_OVER_CLOCK})"
    );
    if ratio > MAX_SPAN_OVER_CLOCK {
        eprintln!(
            "error: a disabled span costs {ratio:.2}x a bare pair of clock reads \
             (allowed {MAX_SPAN_OVER_CLOCK}x)"
        );
        failed = true;
    }

    let (rmw, add, record) = metric_rows();
    for (row, update, ns) in [
        ("obs_metric_counter", "Counter::add", add),
        ("obs_metric_histogram", "Histogram::record", record),
    ] {
        let ratio = ns / rmw;
        println!(
            "{row}: fetch_add {rmw:.2} ns, {update} {ns:.2} ns -> ratio {ratio:.2} \
             (gate: <= {MAX_METRIC_OVER_RMW})"
        );
        if ratio > MAX_METRIC_OVER_RMW {
            eprintln!(
                "error: {update} costs {ratio:.2}x a lone relaxed fetch_add \
                 (allowed {MAX_METRIC_OVER_RMW}x)"
            );
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
