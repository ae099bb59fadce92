//! The six workloads and what they share: seeded operands, the correctness
//! ledger, and the shape of a measured block.
//!
//! Every kernel runs on one thread ([`machine`]), every load generator is one
//! thread on one connection: on a two-vCPU shared VM anything that needs both
//! at once measures the neighbour, not the program.

pub mod als;
pub mod burst;
pub mod dist;
pub mod kernel;
pub mod socket;

use crate::trace::Tracer;
use mttkrp_core::Problem;
use mttkrp_exec::{plan_and_execute, MachineSpec, PlanCache, Planner, DEFAULT_CACHE_WORDS};
use mttkrp_tensor::{mttkrp_reference, DenseTensor, Matrix, Shape};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Name and reason of each workload, in suite order. The reasons are the
/// `why` lines of `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "cube3",
        "56^3 dense, R=32, a 1.3 MiB tensor: the exec::native slab kernel does ~all the work at 12 flop/byte; planner, serve and dist do nothing",
    ),
    (
        "lowrank4",
        "20^4, R=5: same kernel used differently - odd rank, N-2-factor Hadamard rebuild per fibre, 2.5 flop/byte; a cube3 tuning must not lose here",
    ),
    (
        "als4",
        "20^4 planted rank-16 tensor + 5% noise through cp_als: N MTTKRPs + Gram/Cholesky/normalise per sweep, where cross-mode reuse or faster ALS algebra shows",
    ),
    (
        "serve-socket",
        "NetServer, one closed-loop client, 9 plan keys of ~0.9 MiB frames: protocol encode/decode, wire framing and the socket dominate the kernel",
    ),
    (
        "serve-burst",
        "in-process Server, closed loop of 32-request bursts over 12 tiny plan keys: queue coalescing, batcher, plan-cache hits and reply channels dominate; no wire",
    ),
    (
        "dist-grid",
        "64x32x32, R=32: one-rank dist runtime timed (shard, rank program, assemble) plus P=8 rounds whose per-rank word counts must equal the netsim schedule",
    ),
];

/// Span names of the raw native kernel, by mode.
pub const KERNEL_SPANS: [&str; 4] = [
    "exec.kernel.m0",
    "exec.kernel.m1",
    "exec.kernel.m2",
    "exec.kernel.m3",
];

/// Per-layer metric names of the raw native kernel's time, by mode.
pub const KERNEL_METRICS: [&str; 4] = [
    "exec.kernel_ms.m0",
    "exec.kernel_ms.m1",
    "exec.kernel_ms.m2",
    "exec.kernel_ms.m3",
];

/// The machine every timed kernel is planned for: one thread, the default
/// cache size.
pub fn machine() -> MachineSpec {
    MachineSpec::shared(1, DEFAULT_CACHE_WORDS)
}

/// Tiles along each mode of a `dims` tensor at tile edge `tile`. All ones: the
/// kernel's tile loop runs once and its blocking does nothing. (The kernel
/// first cuts the last mode into slabs, so there it may walk fewer.)
pub fn tiles_per_mode(dims: &[usize], tile: usize) -> Vec<usize> {
    dims.iter().map(|&d| d.div_ceil(tile.max(1))).collect()
}

/// What `planner` chooses for each mode of a `dims` problem at `rank`, one
/// line per mode for the output header: algorithm, the native kernel's tile
/// edge and the tiles per mode, so the regime a timing was taken in shows.
pub fn plan_lines(planner: &Planner, dims: &[usize], rank: usize) -> Vec<String> {
    let join = |v: &[usize]| v.iter().map(usize::to_string).collect::<Vec<_>>().join("x");
    let problem = Problem::from_shape(&Shape::new(dims), rank);
    (0..dims.len())
        .map(|n| {
            let plan = planner.plan_executable(&problem, n);
            let native = if plan.algorithm.is_sequential() {
                let tile = plan.native_tile();
                format!(", tile {tile}, tiles {}", join(&tiles_per_mode(dims, tile)))
            } else {
                String::new()
            };
            format!("{} r{rank} m{n}: {}{native}", join(dims), plan.algorithm)
        })
        .collect()
}

/// A pool of one worker, for calling `mttkrp_native` directly.
pub fn one_thread_pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build a one-thread pool")
}

/// Seeded operands for one MTTKRP problem, reference-counted because a
/// `Server` takes its requests' operands that way.
pub struct Operands {
    /// The dense tensor.
    pub x: Arc<DenseTensor>,
    /// One factor matrix per mode.
    pub factors: Arc<Vec<Matrix>>,
}

impl Operands {
    /// Uniform random tensor and factors; `seed` fixes every value.
    pub fn random(dims: &[usize], rank: usize, seed: u64) -> Operands {
        let x = DenseTensor::random(Shape::new(dims), seed);
        let factors = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, rank, seed.wrapping_add(1 + k as u64)))
            .collect();
        Operands {
            x: Arc::new(x),
            factors: Arc::new(factors),
        }
    }

    /// The factors as the borrowed slice the kernels take.
    pub fn refs(&self) -> Vec<&Matrix> {
        self.factors.iter().collect()
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.factors.len()
    }

    /// The rank (columns of every factor).
    pub fn rank(&self) -> usize {
        self.factors[0].cols()
    }

    /// Output of a direct `plan_and_execute` on [`machine`] for every mode:
    /// the reference a timed or served output must equal bit for bit (one
    /// thread, one plan: the sums run in one order).
    pub fn direct(&self) -> Vec<Matrix> {
        let refs = self.refs();
        (0..self.order())
            .map(|n| plan_and_execute(&machine(), &self.x, &refs, n).1.output)
            .collect()
    }

    /// The sequential oracle's output for every mode.
    pub fn oracle(&self) -> Vec<Matrix> {
        let refs = self.refs();
        (0..self.order())
            .map(|n| mttkrp_reference(&self.x, &refs, n))
            .collect()
    }
}

/// Worst deviation of `got` from `want`, relative to `want`'s largest entry.
pub fn rel_err(got: &Matrix, want: &Matrix) -> f64 {
    if (got.rows(), got.cols()) != (want.rows(), want.cols()) {
        return f64::INFINITY;
    }
    let scale = want.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    got.max_abs_diff(want) / scale.max(f64::MIN_POSITIVE)
}

/// Outputs may differ from the oracle by this much (relative); the kernels
/// reorder sums, nothing more.
pub const REL_TOL: f64 = 1e-9;

/// The correctness ledger of a run: every operation's output is checked, a
/// miss is a failed operation.
#[derive(Clone, Debug, Default)]
pub struct Checker {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// Worst relative deviation of any checked output from its reference.
    pub max_rel_err: f64,
}

impl Checker {
    /// Counts one operation that passes iff `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one operation whose output must be within [`REL_TOL`] of `want`.
    pub fn close(&mut self, got: &Matrix, want: &Matrix) {
        let err = rel_err(got, want);
        self.max_rel_err = self.max_rel_err.max(err);
        self.op(err <= REL_TOL);
    }

    /// Counts one operation whose output must equal `want` bit for bit.
    pub fn bits(&mut self, got: &Matrix, want: &Matrix) {
        let same = (got.rows(), got.cols()) == (want.rows(), want.cols())
            && got
                .data()
                .iter()
                .zip(want.data())
                .all(|(g, w)| g.to_bits() == w.to_bits());
        self.op(same);
    }
}

/// Per-layer metrics of a traced run, by name. `main` prints every name of
/// its per-layer table; one a workload does not set reads 0 (the layer is
/// not on that workload's path).
pub type Layers = BTreeMap<&'static str, f64>;

/// One workload: blocks of identical operations on operands set up from a
/// seed. Constructing the workload and verifying it is its set-up, timed as
/// `setup_s`: seeded operands, one direct call per plan key whose output
/// becomes the reference every later output must reproduce, servers started,
/// warm-up done (plans cached, pools built), references checked.
pub trait Workload {
    /// Checks the references against the sequential oracle.
    fn verify(&self, check: &mut Checker);

    /// Spoils one reference (`--corrupt-reference`), to show that a wrong
    /// result fails the run.
    fn corrupt_reference(&mut self);

    /// Words of the workload's largest operand; sizes the stream probe.
    fn tensor_words(&self) -> usize;

    /// What one sample is (`round`, `sweep`, ...), for the output header.
    fn unit(&self) -> &'static str;

    /// The plans behind the timings, one line each ([`plan_lines`]), for the
    /// output header.
    fn plans(&self) -> Vec<String>;

    /// Exact or asserted numbers the last [`Workload::run`] found beside its
    /// timings (a fit, a word count), by per-layer metric name: printed on
    /// the untraced run's `companions` line, since the result line has room
    /// for the end-to-end metrics only.
    fn companions(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Runs `samples` operations, checking each, and returns per sample the
    /// wall times in milliseconds of its parts: the calls it is made of that
    /// cost differently (modes, plan keys), in a fixed order. The reported
    /// time is [`crate::stats::quiet_sum`] of these.
    fn run(&mut self, samples: usize, check: &mut Checker) -> Vec<Vec<f64>>;

    /// Alternates a plain operation, timed as [`Workload::run`] times it,
    /// with the same operation under a root span followed by replays of the
    /// layers beneath it, `samples` times; also fills in the per-layer
    /// metrics only this workload can compute. Returns the plain wall times
    /// and the root spans', which differ by what tracing costs.
    fn run_traced(
        &mut self,
        samples: usize,
        check: &mut Checker,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> (Vec<f64>, Vec<f64>);
}

/// Calls `call(n)` for each mode `n` of `direct`, timing each call in
/// milliseconds and then checking its output bit for bit against `direct[n]`.
pub fn timed_modes(
    direct: &[Matrix],
    check: &mut Checker,
    call: impl Fn(usize) -> Matrix,
) -> Vec<f64> {
    direct
        .iter()
        .enumerate()
        .map(|(n, want)| {
            let start = Instant::now();
            let output = call(n);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            check.bits(&output, want);
            ms
        })
        .collect()
}

/// Whether iteration `op` of a traced loop runs its plain operation before
/// its traced one. Alternating gives both the same share of cold starts: the
/// replays that follow a traced operation leave server threads asleep and
/// caches full of something else for whatever comes next.
pub fn plain_first(op: usize) -> bool {
    op.is_multiple_of(2)
}

/// Microseconds one `Planner::plan_cached` hit takes: a thousand lookups of
/// `problem`'s modes in a cache that holds them all.
pub fn plan_cached_hit_us(planner: &Planner, problem: &Problem) -> f64 {
    const LOOKUPS: usize = 1000;
    let order = problem.order();
    let cache = PlanCache::new(2 * order);
    for n in 0..order {
        planner.plan_cached(problem, n, &cache);
    }
    let start = Instant::now();
    for i in 0..LOOKUPS {
        black_box(planner.plan_cached(problem, i % order, &cache));
    }
    start.elapsed().as_secs_f64() * 1e6 / LOOKUPS as f64
}

/// Median of the durations (µs) of the spans called `name`; 0 without any.
pub fn median_us(tracer: &Tracer, name: &str) -> f64 {
    let d = tracer.durations(name);
    if d.is_empty() {
        0.0
    } else {
        crate::stats::median(&d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_operands() {
        let (a, b) = (
            Operands::random(&[4, 3, 2], 2, 9),
            Operands::random(&[4, 3, 2], 2, 9),
        );
        assert_eq!(a.x.data(), b.x.data());
        assert_eq!(a.factors[2].data(), b.factors[2].data());
        assert_ne!(a.x.data(), Operands::random(&[4, 3, 2], 2, 10).x.data());
    }

    #[test]
    fn checker_counts_misses_and_the_worst_error() {
        let want = Matrix::from_fn(2, 2, |i, j| (1 + i + 2 * j) as f64);
        let mut near = want.clone();
        near.data_mut()[3] += 4e-12; // relative to the largest entry, 4: 1e-12
        let mut check = Checker::default();
        check.close(&near, &want);
        check.bits(&want, &want);
        assert_eq!((check.attempted, check.failed), (2, 0));
        assert!((check.max_rel_err - 1e-12).abs() < 1e-15);
        check.bits(&near, &want);
        check.close(&Matrix::zeros(2, 3), &want);
        assert_eq!((check.attempted, check.failed), (4, 2));
        assert_eq!(check.max_rel_err, f64::INFINITY);
    }
}
