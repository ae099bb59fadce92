//! The CP-ALS driver: sweep plan → tensor passes and partial contractions →
//! per mode Gram-Hadamard → SPD solve (with ridge fallback) → column
//! normalization → fit.

use crate::config::{AlsConfig, BackendChoice};
use crate::report::{AlsRun, AlsSweep};
use mttkrp_core::multi::{contract_partial, TreeStep};
use mttkrp_core::Problem;
use mttkrp_dist::DistBackend;
use mttkrp_exec::{
    Backend, ExecReport, MachineSpec, NativeBackend, Plan, PlanCache, Planner, SimBackend,
};
use mttkrp_tensor::{solve_spd_ridge_into, DenseTensor, KruskalTensor, Matrix};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// A cooperative cancellation handle for a running factorization, checked
/// at every sweep boundary. Clones share one flag: a serving layer hands
/// one clone to the engine and keeps another to fire when the client
/// cancels (or vanishes).
///
/// Cancellation is cooperative and sweep-granular: the engine never stops
/// mid-sweep, so a cancelled run still returns a well-formed [`AlsRun`]
/// (non-empty trace, normalized model) with
/// [`cancelled`](AlsRun::cancelled) set.
#[derive(Clone, Debug, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, un-fired flag.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Fires the flag: the run stops after the sweep now in progress.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`CancelFlag::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A process-wide replacement executor for [`BackendChoice::Dist`] runs.
/// `None` (the default) means the in-process [`DistBackend`] simulated
/// fabric; a host can install e.g. a multi-process TCP launcher so every
/// dist-backed sweep runs as real rank processes.
static DIST_EXECUTOR: RwLock<Option<Arc<dyn Backend + Send + Sync>>> = RwLock::new(None);

/// Installs `backend` as the process-wide executor for every
/// [`BackendChoice::Dist`] MTTKRP the engine runs (any thread, any run),
/// replacing the in-process [`DistBackend`] fabric. The bench crate's
/// `mttkrp_cli listen --dist-exec proc` uses this to put a real
/// multi-process TCP launcher behind served factorizations; `Auto`,
/// `Native`, and `Sim` runs are unaffected.
pub fn install_dist_executor(backend: Arc<dyn Backend + Send + Sync>) {
    *DIST_EXECUTOR
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(backend);
}

/// Removes an installed dist executor, restoring the in-process fabric.
pub fn clear_dist_executor() {
    *DIST_EXECUTOR
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

fn dist_executor() -> Option<Arc<dyn Backend + Send + Sync>> {
    DIST_EXECUTOR
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// The three execution targets, built once per run so backend setup is
/// amortized across all sweeps. The native backend is built on first use —
/// a `Sim`/`Dist` run (e.g. every dist-backed `Factorize` request on a
/// serve worker) never makes one.
struct Backends {
    machine: MachineSpec,
    native: std::cell::OnceCell<NativeBackend>,
    sim: SimBackend,
    dist: DistBackend,
}

impl Backends {
    fn for_machine(machine: &MachineSpec) -> Backends {
        Backends {
            machine: machine.clone(),
            native: std::cell::OnceCell::new(),
            sim: SimBackend::new(),
            dist: DistBackend::new(),
        }
    }

    fn native(&self) -> &NativeBackend {
        self.native.get_or_init(|| {
            NativeBackend::new(self.machine.threads, self.machine.fast_memory_words)
        })
    }

    fn execute(
        &self,
        choice: BackendChoice,
        plan: &Plan,
        x: &DenseTensor,
        factors: &[&Matrix],
    ) -> ExecReport {
        // An installed executor owns distributed plans only; a one-rank
        // plan stays on the in-process fabric, which knows how to run it.
        if choice == BackendChoice::Dist && !plan.algorithm.is_sequential() {
            if let Some(executor) = dist_executor() {
                return mttkrp_exec::execute_observed(executor.as_ref(), plan, x, factors);
            }
        }
        let backend: &dyn Backend = match choice {
            BackendChoice::Native => self.native(),
            BackendChoice::Sim => &self.sim,
            BackendChoice::Dist => &self.dist,
            // The plan's natural target, as `plan_and_execute` picks it.
            BackendChoice::Auto if plan.algorithm.is_sequential() => self.native(),
            BackendChoice::Auto => &self.sim,
        };
        mttkrp_exec::execute_observed(backend, plan, x, factors)
    }
}

/// Validates a CP-ALS input tensor and returns its squared Frobenius
/// norm — the single source of truth for "can this tensor be factorized",
/// shared by the engine and by `mttkrp-serve`'s `FactorizeRequest` (which
/// wants to reject bad inputs on the caller's thread, before a server
/// worker ever sees them).
///
/// # Panics
/// Panics if the tensor has fewer than two modes, contains non-finite
/// values (a NaN passes a plain `!= 0.0` zero-check, and would otherwise
/// surface as a confusing solve failure sweeps later), has a norm that
/// overflows, or is identically zero.
pub fn validate_input(x: &DenseTensor) -> f64 {
    assert!(
        x.order() >= 2,
        "CP-ALS needs a tensor with at least two modes"
    );
    let norm_sq: f64 = x.data().iter().map(|&v| v * v).sum();
    assert!(
        norm_sq.is_finite(),
        "cannot fit a CP model to a tensor with non-finite values (or a norm overflow)"
    );
    assert!(norm_sq > 0.0, "cannot fit a CP model to the zero tensor");
    norm_sq
}

/// Fits a CP model to `x` per `config`.
///
/// The run plans each mode once, before its first sweep, and plans its
/// sweep from those plans ([`Planner::plan_sweep`]): which mode ranges
/// share a partial contraction, and so how many passes over the tensor a
/// sweep makes — two at `N = 4` on a one-rank machine instead of four. Each
/// sweep walks those steps in order. A tensor pass is a planned MTTKRP on
/// the configured backend, of `x` itself under a mode's own plan or of a
/// reshaped view sharing `x`'s buffer under the sweep plan's; every other
/// step contracts a partial ([`contract_partial`]). When a step yields mode
/// `n`'s MTTKRP `B⁽ⁿ⁾`, the normal equations
/// `A⁽ⁿ⁾ · (⊛_{m≠n} A⁽ᵐ⁾ᵀA⁽ᵐ⁾) = B⁽ⁿ⁾` are solved in place by Cholesky with
/// the [`mttkrp_tensor::solve_spd_ridge_into`] fallback and the new factor is
/// column-normalized into the model weights before the next step runs: a
/// partial depends only on factors outside its range, so this is exact
/// Gauss-Seidel ALS, equal to a per-mode sweep up to rounding. The update, its
/// Gram and the fit work in buffers allocated once per run. The fit is read
/// off the *last* mode's MTTKRP via `‖X − M‖² = ‖X‖² − 2⟨X,M⟩ + ‖M‖²` (where
/// `⟨X,M⟩ = Σᵢ Bᵢ·(Aᵢ∘λ)`), so tracking convergence costs no extra pass over
/// the tensor.
///
/// The run is bitwise deterministic given the backend's MTTKRP outputs:
/// everything downstream of the kernel runs in a fixed order per element
/// (independent elements may share vector lanes). Two runs
/// whose backends produce identical MTTKRP bits (e.g. `Sim` and `Dist`,
/// whose equality the `mttkrp-dist` suite asserts structurally) therefore
/// produce bitwise-identical factor matrices.
///
/// # Panics
/// Panics if `x` is the zero tensor or contains non-finite values, or if
/// the machine is malformed (zero threads).
pub fn cp_als(x: &DenseTensor, config: &AlsConfig) -> AlsRun {
    cp_als_streaming(x, config, &mut |_| {}, &CancelFlag::new())
}

/// The model and the working set of its updates, allocated once per run: an
/// update and the fit allocate nothing.
struct Model {
    factors: Vec<Matrix>,
    /// `A⁽ᵏ⁾ᵀA⁽ᵏ⁾` per mode.
    grams: Vec<Matrix>,
    weights: Vec<f64>,
    /// `R x R`: a Hadamard product of Grams (`V` of an update, or of all
    /// modes for the fit).
    v: Matrix,
    /// `R x R`: the Cholesky factor of `V`.
    l: Matrix,
    /// `R x I_n` per mode: `B⁽ⁿ⁾ᵀ`, solved in place into `A⁽ⁿ⁾ᵀ`.
    bt: Vec<Matrix>,
}

impl Model {
    /// Unit-norm random factors drawn from `seed + k` for mode `k`, unit
    /// weights.
    fn seeded(dims: &[usize], r: usize, seed: u64) -> Model {
        let factors: Vec<Matrix> = (dims.iter().enumerate())
            .map(|(k, &d)| {
                let mut f = Matrix::random(d, r, seed.wrapping_add(k as u64));
                f.normalize_cols();
                f
            })
            .collect();
        Model {
            grams: factors.iter().map(Matrix::gram).collect(),
            factors,
            weights: vec![1.0; r],
            v: Matrix::zeros(r, r),
            l: Matrix::zeros(r, r),
            bt: dims.iter().map(|&d| Matrix::zeros(r, d)).collect(),
        }
    }

    /// Sets `v` to the Hadamard product of the Grams of every mode but
    /// `skip`, multiplied into ones in mode order.
    fn gram_hadamard(&mut self, skip: Option<usize>) {
        self.v.data_mut().fill(1.0);
        for (k, g) in self.grams.iter().enumerate() {
            if Some(k) != skip {
                self.v.hadamard_assign(g);
            }
        }
    }

    /// Solves mode `n`'s normal equations against its MTTKRP `b` and installs
    /// the column-normalized factor, its Gram, and its column norms as the
    /// model weights.
    fn update(&mut self, n: usize, b: &Matrix, ridge: f64) {
        self.gram_hadamard(Some(n));
        // A^(n) V = B  <=>  V A^(n)^T = B^T (V symmetric); a
        // rank-deficient V falls back to the ridge-regularized system.
        let bt = &mut self.bt[n];
        b.transpose_into(bt);
        solve_spd_ridge_into(&self.v, bt, ridge, &mut self.l)
            .expect("CP-ALS normal equations unsolvable even with the ridge safeguard");
        let a = &mut self.factors[n];
        bt.transpose_into(a);
        a.normalize_cols_into(&mut self.weights);
        for (j, w) in self.weights.iter().enumerate() {
            if *w == 0.0 {
                // Reseed a collapsed column to the first basis vector so
                // the Gram stays nonsingular-ish; its weight remains 0.
                a[(0, j)] = 1.0;
            }
        }
        a.gram_into(&mut self.grams[n]);
    }

    /// `‖M‖²` of the weighted model: `λᵀ (⊛ₖ A⁽ᵏ⁾ᵀA⁽ᵏ⁾) λ`.
    fn norm_sq(&mut self) -> f64 {
        self.gram_hadamard(None);
        let w = &self.weights;
        let mut norm_sq = 0.0;
        for (&wa, vrow) in w.iter().zip(self.v.data().chunks_exact(w.len())) {
            for (&v, &wb) in vrow.iter().zip(w) {
                norm_sq += wa * v * wb;
            }
        }
        norm_sq
    }
}

/// [`cp_als`] with streaming hooks: `on_sweep` fires on the engine's thread
/// after every completed sweep (its argument is the [`AlsSweep`] just
/// appended to the trace, final sweep included), and `cancel` is checked at
/// each sweep boundary — a fired flag ends the run before the *next* sweep
/// starts, with [`AlsRun::cancelled`] set.
///
/// This is the seam `mttkrp-serve`'s streaming `Factorize` rides: sweeps
/// become wire frames as they complete, and a client's cancel frame (or a
/// vanished connection) frees the worker within one sweep. The hooks
/// change when the run *stops*, never what it computes: up to the sweep it
/// ran last, a hooked run is bitwise identical to an unhooked one.
pub fn cp_als_streaming(
    x: &DenseTensor,
    config: &AlsConfig,
    on_sweep: &mut dyn FnMut(&AlsSweep),
    cancel: &CancelFlag,
) -> AlsRun {
    factorize(x, config, None, on_sweep, cancel)
}

/// [`cp_als_streaming`], with each mode's plan taken from `cache` (and
/// planned into it on a miss) instead of planned for this run alone: the
/// entry point for a caller that keeps plans across runs. Every plan is
/// the one the run would make itself, so the factors are too.
pub fn cp_als_with_hooks(
    x: &DenseTensor,
    config: &AlsConfig,
    cache: &PlanCache,
    on_sweep: &mut dyn FnMut(&AlsSweep),
    cancel: &CancelFlag,
) -> AlsRun {
    factorize(x, config, Some(cache), on_sweep, cancel)
}

fn factorize(
    x: &DenseTensor,
    config: &AlsConfig,
    cache: Option<&PlanCache>,
    on_sweep: &mut dyn FnMut(&AlsSweep),
    cancel: &CancelFlag,
) -> AlsRun {
    let r = config.rank;
    assert!(r >= 1, "CP rank must be at least 1");
    assert!(config.max_sweeps >= 1, "need at least one sweep");
    let shape = x.shape().clone();
    let order = shape.order();
    let norm_x_sq = validate_input(x);
    let norm_x = norm_x_sq.sqrt();

    // Root span of the factorization: the planner spans, then the sweeps
    // (mode updates under those, kernel spans under the modes) nest under
    // it. Declared before planning so it closes after the last sweep.
    let mut factorize_span = mttkrp_obs::span("factorize");
    if factorize_span.is_active() {
        factorize_span.record("rank", r);
        factorize_span.record("modes", order);
        factorize_span.record("max_sweeps", config.max_sweeps);
    }

    // Each mode's plan, made (or found in `cache`) once, before the first
    // sweep: sweep 1 is charged with the time, later sweeps plan nothing.
    let run_start = Instant::now();
    let problem = Problem::from_shape(&shape, r);
    let planner = Planner::new(config.machine.clone());
    let (mut plans, mut plan_times, mut plan_hits) = (Vec::new(), Vec::new(), 0);
    for n in 0..order {
        let t0 = Instant::now();
        let (plan, hit) = match cache {
            Some(cache) => planner.plan_cached_with_status(&problem, n, cache),
            None => (Arc::new(planner.plan_executable(&problem, n)), false),
        };
        plans.push(plan);
        plan_hits += usize::from(hit);
        plan_times.push(t0.elapsed());
    }
    let backends = Backends::for_machine(&config.machine);
    // The steps of a sweep, their one-mode passes under `plans`.
    let sweep_plan = planner.plan_sweep(&problem, &plans);
    // One partial per step, allocated here and reused by every sweep: a
    // contraction overwrites its own in place, a tensor pass lends its last
    // one to the MTTKRP's ignored operand slot and keeps the backend's output.
    let mut partials: Vec<Matrix> = (sweep_plan.steps.iter())
        .map(|step| Matrix::zeros((step.partial_words / r as u64) as usize, r))
        .collect();
    // The Hadamard rows of a contraction that drops more than one mode.
    let mut contraction_scratch = Vec::new();

    // Deterministic seeded init: unit-norm random factors.
    let mut model = Model::seeded(shape.dims(), r, config.seed);

    let mut backend_names: Vec<&'static str> = vec![""; order];
    let mut trace: Vec<AlsSweep> = Vec::new();
    let mut prev_fit = f64::NEG_INFINITY;
    let mut converged = false;
    let mut cancelled = false;

    for sweep in 0..config.max_sweeps {
        let mut sweep_span = mttkrp_obs::span("sweep").with("sweep", sweep + 1);
        let (sweep_start, mode_plan_times) = if sweep == 0 {
            (run_start, std::mem::take(&mut plan_times))
        } else {
            (Instant::now(), vec![Duration::ZERO; order])
        };
        let mut tensor_passes = 0usize;
        // A step's time is charged to the first mode of its range.
        let mut mode_exec_times = vec![Duration::ZERO; order];

        for (i, step) in sweep_plan.steps.iter().enumerate() {
            let TreeStep { lo, hi, parent } = step.tree;
            let updates_mode = step.tree.is_leaf();
            let mut mode_span = updates_mode.then(|| mttkrp_obs::span("mode").with("mode", lo));
            let t0 = Instant::now();
            let (formed, rest) = partials.split_at_mut(i);
            let partial = &mut rest[0];
            if let Some(p) = parent {
                let (from, to) = (sweep_plan.steps[p].tree, step.tree);
                let scratch = &mut contraction_scratch;
                contract_partial(&formed[p], from, to, &model.factors, partial, scratch);
            } else {
                let plan: &Plan =
                    (step.plan.as_deref()).expect("a step off the tensor carries its plan");
                let operands: Vec<&Matrix> = (model.factors[..lo].iter())
                    .chain([&*partial])
                    .chain(&model.factors[hi..])
                    .collect();
                let view = x.reshaped(plan.problem.shape());
                let report = backends.execute(config.backend, plan, &view, &operands);
                let exec_time = t0.elapsed();
                // Per-algorithm kernel latency for the history/SLO layer: the
                // same breakdown the serve worker records, captured here so
                // in-process CP-ALS runs (bench, CLI) are sliced too.
                mttkrp_obs::histogram_record_labeled(
                    "als.mode_exec_us.alg",
                    &plan.algorithm.label(),
                    exec_time.as_micros() as u64,
                );
                backend_names[lo..hi].fill(report.backend);
                *partial = report.output;
                tensor_passes += 1;
            }
            mode_exec_times[lo] += t0.elapsed();

            if let Some(span) = mode_span.as_mut().filter(|span| span.is_active()) {
                // The span itself closes after the solve, so its duration is
                // the whole mode update; these fields carry the split.
                span.record("tensor_pass", parent.is_none());
                span.record("exec_us", mode_exec_times[lo].as_micros() as u64);
                span.record("backend", backend_names[lo]);
            }
            if updates_mode {
                model.update(lo, partial, config.ridge);
            }
        }

        // Fit via the normal-equations identity, with <X, M> read off the
        // last mode's MTTKRP (computed against the final values of every
        // other factor) — no extra pass over the tensor.
        let b = partials.last().expect("a sweep has at least two steps");
        let a_last = &model.factors[order - 1];
        let mut inner = 0.0;
        for i in 0..a_last.rows() {
            let (br, ar) = (b.row(i), a_last.row(i));
            for c in 0..r {
                inner += br[c] * ar[c] * model.weights[c];
            }
        }
        let resid_sq = norm_x_sq - 2.0 * inner + model.norm_sq();
        // A numerically exploded sweep (overflowed factors) makes this NaN;
        // clamping NaN would read as resid 0 => fit 1.0, turning garbage
        // into a "perfect" converged model. Fail loudly instead.
        assert!(
            resid_sq.is_finite(),
            "CP-ALS sweep {} produced a non-finite residual (factors overflowed); \
             the model is numerically invalid",
            sweep + 1
        );
        let resid_sq = resid_sq.max(0.0);
        let fit = 1.0 - resid_sq.sqrt() / norm_x;

        let delta_fit = (sweep > 0).then_some(fit - prev_fit);
        if sweep_span.is_active() {
            sweep_span.record("fit", fit);
            if let Some(d) = delta_fit {
                sweep_span.record("delta_fit", d);
            }
            sweep_span.record("tensor_passes", tensor_passes);
            sweep_span.record("partial_words", sweep_plan.partial_words());
        }
        mttkrp_obs::counter_add("als.tensor_passes", tensor_passes as u64);
        mttkrp_obs::counter_add(
            "als.partial_contractions",
            (sweep_plan.steps.len() - tensor_passes) as u64,
        );
        trace.push(AlsSweep {
            sweep: sweep + 1,
            fit,
            delta_fit,
            tensor_passes,
            mode_plan_times,
            mode_exec_times,
            elapsed: sweep_start.elapsed(),
        });
        // Stream the sweep before deciding whether to stop: the final
        // sweep (converged, cancelled, or budget-exhausted) is delivered
        // like any other.
        on_sweep(trace.last().expect("just pushed"));

        if (fit - prev_fit).abs() < config.tol {
            converged = true;
            break;
        }
        // A flag fired before the first sweep still runs one sweep: the
        // trace is never empty and the model is always a real (if early)
        // ALS iterate.
        if cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        prev_fit = fit;
    }

    if factorize_span.is_active() {
        factorize_span.record("sweeps", trace.len());
        factorize_span.record("converged", converged);
        factorize_span.record("cancelled", cancelled);
        factorize_span.record("fit", trace.last().map(|s| s.fit).unwrap_or(f64::NAN));
    }
    mttkrp_obs::counter_add("als.factorizations", 1);
    drop(factorize_span);

    let weights = model.weights;
    let mut model = KruskalTensor::from_factors(model.factors);
    model.weights = weights;
    AlsRun {
        model,
        trace,
        converged,
        cancelled,
        plans,
        plan_hits,
        sweep_plan,
        backend_names,
        config: config.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_exec::TransportSpec;
    use mttkrp_tensor::Shape;

    fn seq_config(rank: usize) -> AlsConfig {
        AlsConfig::new(rank)
            .with_machine(MachineSpec::shared(2, 1 << 12))
            .with_backend(BackendChoice::Native)
    }

    #[test]
    fn recovers_exact_low_rank_tensor() {
        let truth = KruskalTensor::random(&Shape::new(&[6, 5, 4]), 2, 42);
        let x = truth.full();
        let run = cp_als(
            &x,
            &seq_config(2).with_sweeps(400).with_tol(1e-12).with_seed(7),
        );
        assert!(run.fit() > 0.9999, "fit = {}", run.fit());
        // Cross-check the identity-based fit against a materialized one.
        let direct = run.model.fit_to(&x);
        assert!((direct - run.fit()).abs() < 1e-6);
    }

    #[test]
    fn fit_is_monotone_nondecreasing() {
        let x = DenseTensor::random(Shape::new(&[5, 6, 4]), 3);
        let run = cp_als(
            &x,
            &seq_config(3).with_sweeps(25).with_tol(0.0).with_seed(1),
        );
        for w in run.fit_history().windows(2) {
            assert!(w[1] >= w[0] - 1e-10, "fit decreased: {w:?}");
        }
    }

    #[test]
    fn plan_cache_misses_equal_mode_count_across_all_sweeps() {
        let x = KruskalTensor::random(&Shape::new(&[6, 6, 6, 4]), 2, 9).full();
        let run = cp_als(&x, &seq_config(2).with_sweeps(12).with_tol(0.0));
        assert_eq!(run.sweeps(), 12);
        assert_eq!(run.cache_misses(), 4, "one candidate sweep per mode, ever");
        assert_eq!(run.cache_hits(), 0, "and no lookups inside the sweeps");
        // Sweep 1 made the plans; later sweeps plan nothing.
        assert!(run.trace[0].mode_plan_times.iter().any(|t| !t.is_zero()));
        let mut later = run.trace[1..].iter().flat_map(|s| &s.mode_plan_times);
        assert!(later.all(Duration::is_zero));
        // A mode with a pass of its own runs the plan the run holds.
        for step in run.sweep_plan.steps.iter().filter(|s| s.tree.is_leaf()) {
            let own = |plan: &Arc<Plan>| Arc::ptr_eq(plan, &run.plans[step.tree.lo]);
            assert!(step.plan.as_ref().is_none_or(own));
        }
    }

    #[test]
    fn shared_cache_amortizes_across_runs() {
        let cache = PlanCache::new(16);
        let x = KruskalTensor::random(&Shape::new(&[6, 5, 4, 3]), 2, 3).full();
        let cfg = seq_config(2).with_sweeps(5).with_tol(0.0);
        let run = || cp_als_with_hooks(&x, &cfg, &cache, &mut |_| {}, &CancelFlag::new());
        let (first, second) = (run(), run());
        assert_eq!((first.cache_misses(), first.cache_hits()), (4, 0));
        assert_eq!(
            (second.cache_misses(), second.cache_hits()),
            (0, 4),
            "second run reuses every plan"
        );
        // Same config + same cache semantics => bitwise identical models.
        for (a, b) in first.model.factors.iter().zip(&second.model.factors) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn sim_and_dist_backends_are_bitwise_identical_on_distributed_plans() {
        // The real cross-fabric gate: every per-mode MTTKRP runs the
        // paper's distributed schedule (8x8x8 divides evenly over P = 8),
        // once on the word-exact simulator over in-process channels and
        // once on the sharded runtime over loopback TCP. Their bitwise
        // equality is structural, and the engine preserves it through
        // every sweep.
        let x = KruskalTensor::random(&Shape::new(&[8, 8, 8]), 4, 11).full();
        let machine = MachineSpec::cluster(8, 1, 1 << 16);
        let base = AlsConfig::new(4).with_sweeps(6).with_tol(0.0);
        let sim = cp_als(
            &x,
            &base
                .clone()
                .with_machine(machine.clone())
                .with_backend(BackendChoice::Sim),
        );
        let tcp = machine.with_transport(TransportSpec::Tcp);
        let dist = cp_als(
            &x,
            &base.with_machine(tcp).with_backend(BackendChoice::Dist),
        );
        for plan in &dist.plans {
            assert!(
                !plan.algorithm.is_sequential(),
                "gate needs distributed plans"
            );
        }
        assert_eq!(dist.backend_names, vec!["dist"; 3]);
        assert_eq!(sim.backend_names, vec!["sim"; 3]);
        for (a, b) in sim.model.factors.iter().zip(&dist.model.factors) {
            assert_eq!(a.data(), b.data());
        }
        assert_eq!(sim.model.weights, dist.model.weights);
        assert_eq!(sim.fit_history(), dist.fit_history());
    }

    #[test]
    fn ridge_keeps_rank_deficient_sweeps_alive() {
        // Rank 3 on a rank-1 tensor: extra components collapse and the
        // Gram-Hadamard goes singular; the ridge fallback must keep the
        // run finite and the fit high.
        let x = KruskalTensor::random(&Shape::new(&[5, 4, 3]), 1, 8).full();
        let run = cp_als(&x, &seq_config(3).with_sweeps(60).with_tol(1e-12));
        assert!(run.fit() > 0.999, "fit = {}", run.fit());
        assert!(run
            .model
            .factors
            .iter()
            .all(|f| f.data().iter().all(|v| v.is_finite())));
    }

    #[test]
    fn explain_and_json_report_the_run() {
        let x = KruskalTensor::random(&Shape::new(&[6, 5, 4]), 2, 2).full();
        let run = cp_als(&x, &seq_config(2).with_sweeps(15).with_tol(0.0));
        let text = run.explain();
        assert!(text.contains("mode 0:"), "{text}");
        assert!(text.contains("sweep"), "{text}");
        assert!(text.contains("plan cache"), "{text}");
        assert_eq!(run.cache_misses(), 3);
        // The executed fabrics are recorded per mode, not just the
        // configured choice (which could be "auto").
        assert_eq!(run.backend_names, ["native", "native", "native"]);
    }

    #[test]
    fn sweep_hook_sees_every_sweep_in_order_and_changes_nothing() {
        let x = KruskalTensor::random(&Shape::new(&[6, 5, 4]), 2, 12).full();
        let cfg = seq_config(2).with_sweeps(7).with_tol(0.0);
        let mut seen = Vec::new();
        let hooked = cp_als_streaming(
            &x,
            &cfg,
            &mut |s| seen.push((s.sweep, s.fit)),
            &CancelFlag::new(),
        );
        assert_eq!(seen.len(), 7, "one callback per sweep, final included");
        assert!(seen.windows(2).all(|w| w[1].0 == w[0].0 + 1));
        assert_eq!(
            seen.iter().map(|&(_, f)| f).collect::<Vec<_>>(),
            hooked.fit_history()
        );
        assert!(!hooked.cancelled);
        // Hooks never change the numbers.
        let plain = cp_als(&x, &cfg);
        for (a, b) in hooked.model.factors.iter().zip(&plain.model.factors) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn cancel_stops_at_the_next_sweep_boundary() {
        let x = KruskalTensor::random(&Shape::new(&[6, 5, 4]), 2, 13).full();
        // tol = 0.0 never converges (|delta| < 0.0 is always false), so
        // only the cancel can end this run before the huge budget.
        let cfg = seq_config(2).with_sweeps(100_000).with_tol(0.0);
        let flag = CancelFlag::new();
        let inner = flag.clone();
        let run = cp_als_streaming(
            &x,
            &cfg,
            &mut |s| {
                if s.sweep == 3 {
                    inner.cancel();
                }
            },
            &flag,
        );
        assert!(run.cancelled);
        assert!(!run.converged);
        assert_eq!(run.sweeps(), 3, "cancel lands at the sweep boundary");
        assert!(run.explain().contains("cancelled"), "{}", run.explain());
        // A pre-fired flag still produces one real sweep.
        let fired = CancelFlag::new();
        fired.cancel();
        let early = cp_als_streaming(&x, &cfg, &mut |_| {}, &fired);
        assert!(early.cancelled);
        assert_eq!(early.sweeps(), 1, "trace is never empty");
    }

    #[test]
    fn a_run_stops_at_the_first_fit_change_below_tol() {
        // This run's fit changes by 1.29e-3 at sweep 8 and 5.12e-4 at sweep
        // 9, and by 7.5e-3 at sweep 6: at tol = 1e-3 it stops after sweep
        // 9, where a ten times looser rule would stop after sweep 6.
        let x = DenseTensor::random(Shape::new(&[5, 6, 4]), 3);
        let cfg = seq_config(3).with_sweeps(200).with_seed(1);
        let run = cp_als(&x, &cfg.clone().with_tol(1e-3));
        assert_eq!((run.sweeps(), run.converged), (9, true));
        // tol = 0 is never met: the run spends its whole budget.
        let run = cp_als(&x, &cfg.with_sweeps(20).with_tol(0.0));
        assert_eq!((run.sweeps(), run.converged), (20, false));
    }

    #[test]
    fn convergence_wins_over_a_cancel_fired_the_same_sweep() {
        let x = KruskalTensor::random(&Shape::new(&[5, 4, 3]), 1, 14).full();
        // A huge tolerance converges on sweep 2 (the first with a delta);
        // the hook fires the cancel on that very sweep. Convergence is
        // checked first, so the run reports converged, not cancelled.
        let cfg = seq_config(1).with_sweeps(50).with_tol(1e9);
        let flag = CancelFlag::new();
        let inner = flag.clone();
        let run = cp_als_streaming(
            &x,
            &cfg,
            &mut |s| {
                if s.sweep == 2 {
                    inner.cancel();
                }
            },
            &flag,
        );
        assert_eq!(run.sweeps(), 2);
        assert!(run.converged);
        assert!(!run.cancelled, "a converged run is never 'cancelled'");
    }

    /// The allocating update the in-place [`Model::update`] replaced: the
    /// reference it must equal bit for bit.
    fn reference_update(
        n: usize,
        b: &Matrix,
        factors: &mut [Matrix],
        grams: &mut [Matrix],
        ridge: f64,
    ) -> Vec<f64> {
        let r = b.cols();
        let mut v = Matrix::from_fn(r, r, |_, _| 1.0);
        for (k, g) in grams.iter().enumerate() {
            if k != n {
                v = v.hadamard(g);
            }
        }
        let mut a_new = mttkrp_tensor::solve_spd_ridge(&v, &b.transpose(), ridge)
            .unwrap()
            .transpose();
        let weights = a_new.normalize_cols();
        for (j, w) in weights.iter().enumerate() {
            if *w == 0.0 {
                a_new[(0, j)] = 1.0;
            }
        }
        grams[n] = a_new.gram();
        factors[n] = a_new;
        weights
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn the_in_place_update_is_the_allocating_update_bit_for_bit() {
        // Order 4, so each V multiplies three Grams and their order shows.
        let dims = [6, 5, 4, 3];
        for r in [1, 2, 3, 5, 8, 13, 16, 33] {
            for collapse in [false, true] {
                let mut model = Model::seeded(&dims, r, 40 + r as u64);
                if collapse {
                    // Factor 1's column `r / 2` is zero, so every other
                    // mode's V has a zero row and column there: Cholesky
                    // breaks down, the ridge retry solves, and a zero column
                    // of B comes out a collapsed (reseeded) column.
                    for i in 0..dims[1] {
                        model.factors[1][(i, r / 2)] = 0.0;
                    }
                    model.grams[1] = model.factors[1].gram();
                }
                let (mut factors, mut grams) = (model.factors.clone(), model.grams.clone());
                for sweep in 0..2 {
                    for n in [0, 2, 3] {
                        let mut b = Matrix::random(dims[n], r, (100 * r + 10 * sweep + n) as u64);
                        if collapse {
                            for i in 0..dims[n] {
                                b[(i, r / 2)] = 0.0;
                            }
                        }
                        let want = reference_update(n, &b, &mut factors, &mut grams, 1e-9);
                        model.update(n, &b, 1e-9);
                        let case = format!("R = {r}, collapse {collapse}, sweep {sweep}, mode {n}");
                        assert_eq!(bits(&model.factors[n]), bits(&factors[n]), "{case}");
                        assert_eq!(bits(&model.grams[n]), bits(&grams[n]), "{case}");
                        let as_bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(as_bits(&model.weights), as_bits(&want), "{case}");
                        assert_eq!(want[r / 2] == 0.0, collapse, "{case}");
                    }
                }
            }
        }
    }

    /// FNV-1a over every bit of a factorization of a closed-form tensor on the
    /// native backend at `threads`: the factors, the weights and the fit
    /// history.
    fn factorization_hash(dims: &[usize], rank: usize, threads: usize, sweeps: usize) -> u64 {
        let shape = Shape::new(dims);
        let data = (0..shape.num_entries())
            .map(|lin| ((37 * lin + 11) % 101) as f64 / 101.0 - 0.5)
            .collect();
        let x = DenseTensor::from_vec(shape, data);
        let config = AlsConfig::new(rank)
            .with_machine(MachineSpec::shared(threads, 1 << 12))
            .with_backend(BackendChoice::Native)
            .with_sweeps(sweeps)
            .with_tol(0.0)
            .with_seed(5);
        let run = cp_als(&x, &config);
        assert_eq!(run.sweeps(), sweeps);
        let fits = run.fit_history();
        let words = (run.model.factors.iter().flat_map(|f| f.data()))
            .chain(&run.model.weights)
            .chain(&fits)
            .map(|v| v.to_bits());
        words
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn factorizations_reproduce_the_bits_recorded_before_the_in_place_update() {
        // Orders 2 to 5: one-factor Hadamard blocks (borrowed), contractions
        // that drop one mode (borrowed rows) and two (scratch rows), and
        // tiled passes, at one and two threads. The initial factors come
        // from the `rand` shim, so a change there moves these too.
        // (`als4`'s shape takes 12 sweeps: a debug build runs its kernel
        // through libm's `fma`.)
        let cases: [(&[usize], usize, usize); 4] = [
            (&[20, 20, 20, 20], 16, 12),
            (&[12, 10, 8], 5, 40),
            (&[6, 5, 4, 3, 4], 3, 40),
            (&[9, 8], 2, 40),
        ];
        // Per case, at one and at two threads.
        let hashes: [[u64; 2]; 4] = [
            [0xcde0c7e378e10f9e, 0xa99236a0c302d10d],
            [0x285d284d02a40cc8, 0xfeb4e3d2d2b8f005],
            [0x7e3c4919bcaf80a7, 0xf5d10eb8cab7b370],
            [0x70b26ac98826824e, 0x94e300832dc63eb1],
        ];
        for ((dims, rank, sweeps), want) in cases.into_iter().zip(hashes) {
            for (threads, want) in [1, 2].into_iter().zip(want) {
                let got = factorization_hash(dims, rank, threads, sweeps);
                assert_eq!(got, want, "{dims:?} R{rank} threads {threads}: {got:#018x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero tensor")]
    fn zero_tensor_rejected() {
        let x = DenseTensor::zeros(Shape::new(&[3, 3]));
        let _ = cp_als(&x, &AlsConfig::new(1));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_tensor_rejected() {
        // A NaN entry passes a plain `!= 0.0` zero-check but would
        // otherwise surface as a confusing solve failure sweeps later.
        let mut x = DenseTensor::random(Shape::new(&[3, 3, 3]), 1);
        x.data_mut()[5] = f64::NAN;
        let _ = cp_als(&x, &AlsConfig::new(1));
    }
}
