//! What a CP-ALS run reports: the fitted model, a per-sweep trace, and an
//! explainable summary.

use crate::config::AlsConfig;
use mttkrp_exec::{Plan, SweepPlan};
use mttkrp_tensor::KruskalTensor;
use std::sync::Arc;
use std::time::Duration;

/// One sweep's worth of trace: fit, fit improvement, tensor passes, and
/// timing.
#[derive(Clone, Debug)]
pub struct AlsSweep {
    /// 1-based sweep number.
    pub sweep: usize,
    /// Relative fit `1 - |X - M|_F / |X|_F` after this sweep.
    pub fit: f64,
    /// Fit change versus the previous sweep (`None` on the first sweep).
    pub delta_fit: Option<f64>,
    /// Passes over the tensor this sweep made (backend executions): `N` for
    /// a per-mode sweep, fewer when modes share partial contractions.
    pub tensor_passes: usize,
    /// Time each mode spent in the planner, in mode order: on sweep 1 its
    /// one plan (or cache lookup) of the run, zero on every later sweep.
    pub mode_plan_times: Vec<Duration>,
    /// Time each mode spent forming its MTTKRP (tensor passes and partial
    /// contractions), in mode order. A step of the sweep plan that serves
    /// several modes (a shared tensor pass or partial) is charged to the
    /// first of them.
    pub mode_exec_times: Vec<Duration>,
    /// Wall time of the whole sweep; sweep 1's starts with the run's
    /// planning.
    pub elapsed: Duration,
}

/// The result of a CP-ALS run: the fitted model plus everything needed to
/// answer "what happened, and why was it executed this way?".
#[derive(Debug)]
pub struct AlsRun {
    /// The fitted CP model (unit-norm factor columns, weights in
    /// `lambda`).
    pub model: KruskalTensor,
    /// Per-sweep trace, in sweep order (never empty).
    pub trace: Vec<AlsSweep>,
    /// Whether the fit tolerance was met before the sweep budget ran out.
    pub converged: bool,
    /// Whether a [`CancelFlag`](crate::CancelFlag) ended the run early (at
    /// a sweep boundary, before convergence). A converged run is never
    /// `cancelled`, even if the flag also fired.
    pub cancelled: bool,
    /// Each mode's standalone plan (index = mode), made (or looked up) once,
    /// before sweep 1. Only the modes [`AlsRun::sweep_plan`] gives a tensor
    /// pass of their own execute theirs.
    pub plans: Vec<Arc<Plan>>,
    /// How many of [`AlsRun::plans`] a plan cache already held.
    pub(crate) plan_hits: usize,
    /// What every sweep executed: the tensor passes (with the plans of the
    /// merged-range ones), the partial contractions, and the predicted flops
    /// and words against `N` per-mode plans. Planned once per run, from
    /// [`AlsRun::plans`].
    pub sweep_plan: SweepPlan,
    /// The backend that ran the tensor pass each mode's MTTKRP came from
    /// (index = mode), e.g. `"native"`, `"sim"`, `"dist"`.
    pub backend_names: Vec<&'static str>,
    /// The configuration the run was made with.
    pub(crate) config: AlsConfig,
}

impl AlsRun {
    /// Final relative fit `1 - |X - M|_F / |X|_F`.
    pub fn fit(&self) -> f64 {
        self.trace.last().expect("trace is never empty").fit
    }

    /// Number of sweeps performed.
    pub fn sweeps(&self) -> usize {
        self.trace.len()
    }

    /// The fit after each sweep, in sweep order.
    pub fn fit_history(&self) -> Vec<f64> {
        self.trace.iter().map(|s| s.fit).collect()
    }

    /// Of the run's `N` mode plans, those a plan cache already held.
    pub fn cache_hits(&self) -> usize {
        self.plan_hits
    }

    /// Of the run's `N` mode plans, those the run planned: `N` without a
    /// shared cache or with a fresh one — one candidate sweep per mode,
    /// however many sweeps run (asserted by `mttkrp_cli cp-als --gate`).
    pub fn cache_misses(&self) -> usize {
        self.plans.len() - self.plan_hits
    }

    /// The share of the run's mode plans a plan cache already held.
    pub fn hit_rate(&self) -> f64 {
        self.plan_hits as f64 / self.plans.len() as f64
    }

    /// Multi-line report: configuration, the sweep plan, each mode's
    /// standalone plan (and whether a sweep executed it), the sweep trace,
    /// and the cache ledger.
    pub fn explain(&self) -> String {
        let m = &self.config.machine;
        let mut s = format!(
            "CP-ALS run: dims {:?}, R = {}, backend {}, machine {} thread(s) / {} rank(s), \
             transport {}\n",
            self.model.shape().dims(),
            self.config.rank,
            self.config.backend,
            m.threads,
            m.ranks,
            m.transport,
        );
        s.push_str(&self.sweep_plan.explain());
        s.push_str(
            "\nmode plans (each mode's standalone plan, made once per run; \
             a sweep executes only those with a tensor pass of their own):\n",
        );
        let leaves = self.sweep_plan.steps.iter().filter(|s| s.tree.is_leaf());
        for ((n, plan), leaf) in self.plans.iter().enumerate().zip(leaves) {
            let ran = match leaf.tree.parent {
                None => format!("ran on {}", self.backend_names[n]),
                Some(p) => {
                    let from = self.sweep_plan.steps[p].tree;
                    format!(
                        "not executed: contracted from the modes {}..{} partial ({})",
                        from.lo, from.hi, self.backend_names[n]
                    )
                }
            };
            s.push_str(&format!("  mode {n}: {} [{ran}]\n", plan.algorithm.label()));
        }
        s.push_str("sweeps (fit, delta, time):\n");
        let total = self.trace.len();
        for (i, sw) in self.trace.iter().enumerate() {
            if total > 10 && i >= 6 && i + 3 < total {
                if i == 6 {
                    s.push_str(&format!("  ... ({} sweeps elided)\n", total - 9));
                }
                continue;
            }
            let delta = match sw.delta_fit {
                Some(d) => format!("{d:+.3e}"),
                None => "--".to_string(),
            };
            s.push_str(&format!(
                "  sweep {:>3}: fit {:.6}  delta {:<10}  {:.3} ms\n",
                sw.sweep,
                sw.fit,
                delta,
                sw.elapsed.as_secs_f64() * 1e3
            ));
        }
        s.push_str(&format!(
            "stopped: {} after {} sweep(s), final fit {:.6} (tol {:.1e})\n",
            if self.converged {
                "converged"
            } else if self.cancelled {
                "cancelled"
            } else {
                "sweep budget exhausted"
            },
            self.sweeps(),
            self.fit(),
            self.config.tol
        ));
        s.push_str(&format!(
            "plan cache (this run): {} hit(s) / {} miss(es) ({:.1}% hit rate)",
            self.cache_hits(),
            self.cache_misses(),
            100.0 * self.hit_rate()
        ));
        s
    }
}
